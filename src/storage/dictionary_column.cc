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
  std::vector<uint32_t> row_codes;
  auto dictionary = OrderPreservingDictionary<T>::Encode(values, &row_codes);
  const uint64_t max_code = dictionary.empty() ? 0 : dictionary.size() - 1;
  BitPackedVector codes(BitPackedVector::BitsFor(max_code));
  codes.Reserve(values.size());
  for (const uint32_t code : row_codes) codes.Append(code);
  return std::unique_ptr<DictionaryColumn<T>>(
      new DictionaryColumn<T>(std::move(dictionary), std::move(codes)));
}

template <typename T>
size_t DictionaryColumn<T>::MemoryUsageFor(const std::vector<T>& values) {
  size_t entries = 0;
  const size_t dictionary_bytes =
      OrderPreservingDictionary<T>::MemoryUsageFor(values, &entries);
  const uint64_t max_code = entries == 0 ? 0 : entries - 1;
  return dictionary_bytes +
         BitPackedVector::MemoryUsageFor(BitPackedVector::BitsFor(max_code),
                                         values.size());
}

template <typename T>
void DictionaryColumn<T>::Gather(const RowId* rows, size_t n, T* out) const {
  constexpr size_t kBlockRows = 1024;
  uint64_t block[kBlockRows];
  for (size_t i = 0; i < n;) {
    HYTAP_ASSERT(rows[i] < codes_.size(), "gather row out of range");
    const size_t begin = rows[i] - rows[i] % kBlockRows;
    const size_t end = std::min(begin + kBlockRows, codes_.size());
    codes_.DecodeRange(begin, end, block);
    for (; i < n && rows[i] < end; ++i) {
      out[i] = dictionary_.ValueFor(ValueId(block[rows[i] - begin]));
    }
  }
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
    const TypedColumn& values) {
  return std::visit(
      [](const auto& typed) -> std::unique_ptr<AbstractColumn> {
        using T = typename std::decay_t<decltype(typed)>::value_type;
        return DictionaryColumn<T>::Build(typed);
      },
      values);
}

size_t DictionaryMemoryUsage(const TypedColumn& values) {
  return std::visit(
      [](const auto& typed) {
        using T = typename std::decay_t<decltype(typed)>::value_type;
        return DictionaryColumn<T>::MemoryUsageFor(typed);
      },
      values);
}

template class DictionaryColumn<int32_t>;
template class DictionaryColumn<int64_t>;
template class DictionaryColumn<float>;
template class DictionaryColumn<double>;
template class DictionaryColumn<std::string>;

}  // namespace hytap
