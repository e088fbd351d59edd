#include "storage/value_column.h"

#include <algorithm>

#include "common/assert.h"

namespace hytap {

namespace {

template <typename T>
constexpr DataType TypeOf() {
  if constexpr (std::is_same_v<T, int32_t>) return DataType::kInt32;
  if constexpr (std::is_same_v<T, int64_t>) return DataType::kInt64;
  if constexpr (std::is_same_v<T, float>) return DataType::kFloat;
  if constexpr (std::is_same_v<T, double>) return DataType::kDouble;
  if constexpr (std::is_same_v<T, std::string>) return DataType::kString;
}

}  // namespace

template <typename T>
void ValueColumn<T>::Append(const T& value) {
  const RowId row = codes_.size();
  codes_.push_back(dictionary_.GetOrAdd(value));
  index_.Insert(value, row);
}

template <typename T>
DataType ValueColumn<T>::type() const {
  return TypeOf<T>();
}

template <typename T>
size_t ValueColumn<T>::MemoryUsage() const {
  // B+-tree overhead approximated by per-entry key+value+pointer costs.
  return dictionary_.MemoryUsage() + codes_.capacity() * sizeof(ValueId) +
         index_.size() * (sizeof(T) + sizeof(RowId) + 2 * sizeof(void*));
}

template <typename T>
Value ValueColumn<T>::GetValue(RowId row) const {
  return Value(Get(row));
}

template <typename T>
PositionList ValueColumn<T>::IndexLookup(const T& value) const {
  PositionList rows = index_.Lookup(value);
  std::sort(rows.begin(), rows.end());
  return rows;
}

template <typename T>
void ValueColumn<T>::ScanBetween(const Value* lo, const Value* hi,
                                 PositionList* out) const {
  if (lo != nullptr && hi != nullptr && !(lo->As<T>() <= hi->As<T>())) {
    return;
  }
  if (lo != nullptr && hi != nullptr && lo->As<T>() == hi->As<T>()) {
    // Equality: use the B+-tree index.
    PositionList rows = IndexLookup(lo->As<T>());
    out->insert(out->end(), rows.begin(), rows.end());
    return;
  }
  // Range / open-ended scan: the delta partition is small by design, a
  // linear pass is adequate (and avoids sentinel keys in the index).
  const T* lo_t = nullptr;
  const T* hi_t = nullptr;
  T lo_storage{}, hi_storage{};
  if (lo != nullptr) {
    lo_storage = lo->As<T>();
    lo_t = &lo_storage;
  }
  if (hi != nullptr) {
    hi_storage = hi->As<T>();
    hi_t = &hi_storage;
  }
  for (RowId row = 0; row < codes_.size(); ++row) {
    const T& v = dictionary_.ValueFor(codes_[row]);
    if (lo_t != nullptr && v < *lo_t) continue;
    if (hi_t != nullptr && *hi_t < v) continue;
    out->push_back(row);
  }
}

template <typename T>
void ValueColumn<T>::Probe(const Value* lo, const Value* hi,
                           const PositionList& in, PositionList* out) const {
  const T* lo_t = nullptr;
  const T* hi_t = nullptr;
  T lo_storage{}, hi_storage{};
  if (lo != nullptr) {
    lo_storage = lo->As<T>();
    lo_t = &lo_storage;
  }
  if (hi != nullptr) {
    hi_storage = hi->As<T>();
    hi_t = &hi_storage;
  }
  for (RowId row : in) {
    const T& v = Get(row);
    if (lo_t != nullptr && v < *lo_t) continue;
    if (hi_t != nullptr && *hi_t < v) continue;
    out->push_back(row);
  }
}

std::unique_ptr<AbstractColumn> MakeValueColumn(const ColumnDefinition& def) {
  switch (def.type) {
    case DataType::kInt32:
      return std::make_unique<ValueColumn<int32_t>>();
    case DataType::kInt64:
      return std::make_unique<ValueColumn<int64_t>>();
    case DataType::kFloat:
      return std::make_unique<ValueColumn<float>>();
    case DataType::kDouble:
      return std::make_unique<ValueColumn<double>>();
    case DataType::kString:
      return std::make_unique<ValueColumn<std::string>>();
  }
  HYTAP_UNREACHABLE("invalid DataType");
}

void AppendValue(AbstractColumn* column, const Value& value) {
  HYTAP_ASSERT(column->type() == value.type(),
               "value type does not match column type");
  switch (value.type()) {
    case DataType::kInt32:
      static_cast<ValueColumn<int32_t>*>(column)->Append(value.AsInt32());
      return;
    case DataType::kInt64:
      static_cast<ValueColumn<int64_t>*>(column)->Append(value.AsInt64());
      return;
    case DataType::kFloat:
      static_cast<ValueColumn<float>*>(column)->Append(value.AsFloat());
      return;
    case DataType::kDouble:
      static_cast<ValueColumn<double>*>(column)->Append(value.AsDouble());
      return;
    case DataType::kString:
      static_cast<ValueColumn<std::string>*>(column)->Append(value.AsString());
      return;
  }
  HYTAP_UNREACHABLE("invalid DataType");
}

template class ValueColumn<int32_t>;
template class ValueColumn<int64_t>;
template class ValueColumn<float>;
template class ValueColumn<double>;
template class ValueColumn<std::string>;

}  // namespace hytap
