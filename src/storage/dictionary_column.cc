#include "storage/dictionary_column.h"

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
std::unique_ptr<DictionaryColumn<T>> DictionaryColumn<T>::Build(
    const std::vector<T>& values) {
  auto dictionary = OrderPreservingDictionary<T>::Build(values);
  const uint64_t max_code = dictionary.empty() ? 0 : dictionary.size() - 1;
  BitPackedVector codes(BitPackedVector::BitsFor(max_code));
  codes.Reserve(values.size());
  for (const T& value : values) {
    auto code = dictionary.CodeFor(value);
    HYTAP_ASSERT(code.has_value(), "value missing from its own dictionary");
    codes.Append(*code);
  }
  return std::unique_ptr<DictionaryColumn<T>>(
      new DictionaryColumn<T>(std::move(dictionary), std::move(codes)));
}

template <typename T>
DataType DictionaryColumn<T>::type() const {
  return TypeOf<T>();
}

template <typename T>
Value DictionaryColumn<T>::GetValue(RowId row) const {
  return Value(Get(row));
}

template <typename T>
bool DictionaryColumn<T>::CodeRange(const Value* lo, const Value* hi,
                                    ValueId* code_lo,
                                    ValueId* code_hi) const {
  *code_lo = 0;
  *code_hi = static_cast<ValueId>(dictionary_.size());
  if (lo != nullptr) *code_lo = dictionary_.LowerBoundCode(lo->As<T>());
  if (hi != nullptr) *code_hi = dictionary_.UpperBoundCode(hi->As<T>());
  return *code_lo < *code_hi;
}

template <typename T>
void DictionaryColumn<T>::ScanBetween(const Value* lo, const Value* hi,
                                      PositionList* out) const {
  ScanBetweenRange(lo, hi, 0, codes_.size(), out);
}

template <typename T>
void DictionaryColumn<T>::ScanBetweenRange(const Value* lo, const Value* hi,
                                           size_t row_begin, size_t row_end,
                                           PositionList* out) const {
  ValueId code_lo, code_hi;
  // Dictionary-domain short-circuit: a predicate interval that misses
  // [dict.min, dict.max] — or falls between two adjacent dictionary values —
  // yields an empty code interval and never touches the code vector.
  if (!CodeRange(lo, hi, &code_lo, &code_hi)) return;
  row_end = std::min(row_end, codes_.size());
  if (row_begin >= row_end) return;
  const bool equality = code_lo + 1 == code_hi;
  if (!ZoneMapsEnabled()) {
    if (equality) {
      // Equality on a single code: the common OLTP case.
      codes_.ScanEqual(code_lo, row_begin, row_end, out);
    } else {
      codes_.ScanRange(code_lo, code_hi, row_begin, row_end, out);
    }
    return;
  }
  // Zone-aligned chunks: a zone whose [min, max] code bounds miss the
  // predicate's code interval is skipped without decoding a single word.
  const ZoneMap& zones = codes_.zone_map();
  for (size_t chunk_begin = row_begin; chunk_begin < row_end;) {
    const size_t zone = chunk_begin / kZoneMapRows;
    const size_t chunk_end = std::min(row_end, (zone + 1) * kZoneMapRows);
    if (!zones.Prunes(chunk_begin, chunk_end, code_lo, code_hi)) {
      if (equality) {
        codes_.ScanEqual(code_lo, chunk_begin, chunk_end, out);
      } else {
        codes_.ScanRange(code_lo, code_hi, chunk_begin, chunk_end, out);
      }
    }
    chunk_begin = chunk_end;
  }
}

template <typename T>
bool DictionaryColumn<T>::CanSkipRange(const Value* lo, const Value* hi,
                                       size_t row_begin,
                                       size_t row_end) const {
  if (!ZoneMapsEnabled()) return false;
  ValueId code_lo, code_hi;
  if (!CodeRange(lo, hi, &code_lo, &code_hi)) return true;
  return codes_.zone_map().Prunes(row_begin, std::min(row_end, codes_.size()),
                                  code_lo, code_hi);
}

template <typename T>
void DictionaryColumn<T>::Probe(const Value* lo, const Value* hi,
                                const PositionList& in,
                                PositionList* out) const {
  ValueId code_lo, code_hi;
  if (!CodeRange(lo, hi, &code_lo, &code_hi)) return;
  // Branch-free append: every candidate is written, the cursor advances only
  // past survivors (the unsigned `code - lo < span` test of the scan kernel).
  const uint64_t span = code_hi - code_lo;
  const size_t base = out->size();
  out->resize(base + in.size());
  RowId* dst = out->data() + base;
  size_t kept = 0;
  for (RowId row : in) {
    dst[kept] = row;
    kept += codes_.Get(row) - code_lo < span;
  }
  out->resize(base + kept);
}

std::unique_ptr<AbstractColumn> BuildDictionaryColumn(
    const ColumnDefinition& def, const std::vector<Value>& values) {
  switch (def.type) {
    case DataType::kInt32: {
      std::vector<int32_t> typed;
      typed.reserve(values.size());
      for (const Value& v : values) typed.push_back(v.AsInt32());
      return DictionaryColumn<int32_t>::Build(typed);
    }
    case DataType::kInt64: {
      std::vector<int64_t> typed;
      typed.reserve(values.size());
      for (const Value& v : values) typed.push_back(v.AsInt64());
      return DictionaryColumn<int64_t>::Build(typed);
    }
    case DataType::kFloat: {
      std::vector<float> typed;
      typed.reserve(values.size());
      for (const Value& v : values) typed.push_back(v.AsFloat());
      return DictionaryColumn<float>::Build(typed);
    }
    case DataType::kDouble: {
      std::vector<double> typed;
      typed.reserve(values.size());
      for (const Value& v : values) typed.push_back(v.AsDouble());
      return DictionaryColumn<double>::Build(typed);
    }
    case DataType::kString: {
      std::vector<std::string> typed;
      typed.reserve(values.size());
      for (const Value& v : values) typed.push_back(v.AsString());
      return DictionaryColumn<std::string>::Build(typed);
    }
  }
  HYTAP_UNREACHABLE("invalid DataType");
}

template class DictionaryColumn<int32_t>;
template class DictionaryColumn<int64_t>;
template class DictionaryColumn<float>;
template class DictionaryColumn<double>;
template class DictionaryColumn<std::string>;

}  // namespace hytap
