#ifndef HYTAP_STORAGE_DICTIONARY_H_
#define HYTAP_STORAGE_DICTIONARY_H_

#include <cmath>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.h"

namespace hytap {

/// The dictionary order: operator< for every type, except that all NaNs are
/// one value that sorts after +inf. Unlike operator< this is a strict weak
/// ordering on floating point, so sorting values that hold NaN is defined.
/// -0.0 and +0.0 are one value.
template <typename T>
struct DictionaryLess {
  bool operator()(const T& a, const T& b) const {
    if constexpr (std::is_floating_point_v<T>) {
      return a < b || (std::isnan(b) && !std::isnan(a));
    } else {
      return a < b;
    }
  }
};

/// Order-preserving dictionary for the read-optimized main partition.
///
/// Values are stored sorted and deduplicated, so value-id order equals value
/// order: range predicates translate to code-range predicates and scans can
/// run on compressed data with late materialization (paper §II-A).
template <typename T>
class OrderPreservingDictionary {
 public:
  OrderPreservingDictionary() = default;

  /// Builds from arbitrary (unsorted, possibly duplicated) values.
  static OrderPreservingDictionary Build(const std::vector<T>& values);

  /// Builds the dictionary of `values` and, if `codes` is non-null, every
  /// row's code (codes->at(r) encodes values[r]) from one stable sort of the
  /// row permutation (DictionaryLess order): each run of equal values gives
  /// one entry, so no row is looked up. An entry holds the first occurrence
  /// in row order of its values (which matters for -0.0 / +0.0).
  static OrderPreservingDictionary Encode(const std::vector<T>& values,
                                          std::vector<uint32_t>* codes);

  /// MemoryUsage() of Build(values), from the same sort, without building
  /// the dictionary; its size() goes to `*entries`.
  static size_t MemoryUsageFor(const std::vector<T>& values, size_t* entries);

  /// Exact-match code; nullopt if the value is not in the dictionary.
  std::optional<ValueId> CodeFor(const T& value) const;

  /// First code whose value is >= `value` (may be size() = past-the-end).
  ValueId LowerBoundCode(const T& value) const;

  /// First code whose value is > `value`.
  ValueId UpperBoundCode(const T& value) const;

  const T& ValueFor(ValueId code) const;

  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  /// Heap bytes used by the dictionary payload.
  size_t MemoryUsage() const;

 private:
  std::vector<T> values_;  // sorted, unique
};

/// Unsorted dictionary for the write-optimized delta partition: codes are
/// assigned in insertion order; a hash map gives O(1) value lookup
/// (the B+-tree index on top gives ordered access, paper §II).
template <typename T>
class UnsortedDictionary {
 public:
  UnsortedDictionary() = default;

  /// Returns the existing code for `value` or assigns the next one.
  ValueId GetOrAdd(const T& value);

  std::optional<ValueId> CodeFor(const T& value) const;
  const T& ValueFor(ValueId code) const;

  size_t size() const { return values_.size(); }

  size_t MemoryUsage() const;

 private:
  std::vector<T> values_;                      // code -> value
  std::unordered_map<T, ValueId> value_ids_;   // value -> code
};

extern template class OrderPreservingDictionary<int32_t>;
extern template class OrderPreservingDictionary<int64_t>;
extern template class OrderPreservingDictionary<float>;
extern template class OrderPreservingDictionary<double>;
extern template class OrderPreservingDictionary<std::string>;

extern template class UnsortedDictionary<int32_t>;
extern template class UnsortedDictionary<int64_t>;
extern template class UnsortedDictionary<float>;
extern template class UnsortedDictionary<double>;
extern template class UnsortedDictionary<std::string>;

}  // namespace hytap

#endif  // HYTAP_STORAGE_DICTIONARY_H_
