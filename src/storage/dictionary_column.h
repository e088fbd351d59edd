#ifndef HYTAP_STORAGE_DICTIONARY_COLUMN_H_
#define HYTAP_STORAGE_DICTIONARY_COLUMN_H_

#include <memory>
#include <vector>

#include "storage/bit_packed_vector.h"
#include "storage/column.h"
#include "storage/dictionary.h"
#include "storage/typed_column.h"

namespace hytap {

/// A Memory-Resident Column (MRC, paper §II-A): a single attribute stored
/// column-oriented with an order-preserving dictionary and a bit-packed
/// value-id vector. Scans execute on compressed codes with late
/// materialization; range predicates become code-range comparisons.
template <typename T>
class DictionaryColumn : public AbstractColumn {
 public:
  /// Builds from raw values (the merge process produces these): one sort
  /// gives the dictionary and every row's code
  /// (OrderPreservingDictionary::Encode).
  static std::unique_ptr<DictionaryColumn<T>> Build(
      const std::vector<T>& values);

  /// MemoryUsage() of Build(values), without encoding: the footprint a_i of
  /// a column that is not DRAM-resident.
  static size_t MemoryUsageFor(const std::vector<T>& values);

  DataType type() const override;
  size_t size() const override { return codes_.size(); }
  size_t distinct_count() const override { return dictionary_.size(); }
  size_t MemoryUsage() const override {
    return dictionary_.MemoryUsage() + codes_.MemoryUsage();
  }

  Value GetValue(RowId row) const override;
  void ScanBetween(const Value* lo, const Value* hi,
                   PositionList* out) const override;
  void ScanBetweenRange(const Value* lo, const Value* hi, size_t row_begin,
                        size_t row_end, PositionList* out) const override;
  void Probe(const Value* lo, const Value* hi, const PositionList& in,
             PositionList* out) const override;
  bool CanSkipRange(const Value* lo, const Value* hi, size_t row_begin,
                    size_t row_end) const override;

  /// Typed accessor used by hot loops (no Value boxing).
  const T& Get(RowId row) const {
    return dictionary_.ValueFor(static_cast<ValueId>(codes_.Get(row)));
  }

  /// The values of rows rows[0, n) (ascending) into out[0, n): codes are
  /// unpacked a block at a time with DecodeRange, then looked up.
  void Gather(const RowId* rows, size_t n, T* out) const;

  const OrderPreservingDictionary<T>& dictionary() const {
    return dictionary_;
  }
  const BitPackedVector& codes() const { return codes_; }

 private:
  DictionaryColumn(OrderPreservingDictionary<T> dictionary,
                   BitPackedVector codes)
      : dictionary_(std::move(dictionary)), codes_(std::move(codes)) {}

  /// Translates a [lo, hi] value interval into a half-open code interval
  /// [code_lo, code_hi); returns false if the interval is empty.
  bool CodeRange(const Value* lo, const Value* hi, ValueId* code_lo,
                 ValueId* code_hi) const;

  OrderPreservingDictionary<T> dictionary_;
  BitPackedVector codes_;
};

/// DictionaryColumn<T>::Build of a typed column's values.
std::unique_ptr<AbstractColumn> BuildDictionaryColumn(
    const TypedColumn& values);

/// DictionaryColumn<T>::MemoryUsageFor of a typed column's values.
size_t DictionaryMemoryUsage(const TypedColumn& values);

extern template class DictionaryColumn<int32_t>;
extern template class DictionaryColumn<int64_t>;
extern template class DictionaryColumn<float>;
extern template class DictionaryColumn<double>;
extern template class DictionaryColumn<std::string>;

}  // namespace hytap

#endif  // HYTAP_STORAGE_DICTIONARY_COLUMN_H_
