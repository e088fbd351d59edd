#include "storage/dictionary.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <limits>

#include "common/assert.h"

namespace hytap {

namespace {

/// Bytes a dictionary's copy of `s` holds: its characters, or the inline
/// buffer of a string short enough to need no heap block. This is the
/// capacity std::string's copy constructor gives, so the figure depends only
/// on the value, never on how the string was built or moved.
size_t StringBytes(const std::string& s) {
  static const size_t kInline = std::string().capacity();
  return std::max(s.size(), kInline);
}

template <typename T>
size_t PayloadBytes(const std::vector<T>& values) {
  if constexpr (std::is_same_v<T, std::string>) {
    size_t total = values.capacity() * sizeof(std::string);
    for (const auto& s : values) total += StringBytes(s);
    return total;
  } else {
    return values.capacity() * sizeof(T);
  }
}

/// Unsigned sort key whose order is DictionaryLess's: values equal under it
/// (every NaN; -0.0 and +0.0) share one key, and NaN takes the largest.
uint32_t SortKey(int32_t v) { return uint32_t(v) ^ 0x80000000u; }
uint64_t SortKey(int64_t v) { return uint64_t(v) ^ (uint64_t{1} << 63); }

template <typename Bits, typename F>
Bits FloatSortKey(F v) {
  if (std::isnan(v)) return std::numeric_limits<Bits>::max();
  if (v == 0) v = 0;  // -0.0 -> +0.0
  Bits bits;
  std::memcpy(&bits, &v, sizeof(bits));
  constexpr Bits kSign = Bits{1} << (8 * sizeof(Bits) - 1);
  return (bits & kSign) != 0 ? ~bits : (bits | kSign);
}
uint32_t SortKey(float v) { return FloatSortKey<uint32_t>(v); }
uint64_t SortKey(double v) { return FloatSortKey<uint64_t>(v); }

template <typename Key>
struct KeyedRow {
  Key key;
  uint32_t row;
};

/// Stable LSD radix sort of `items` by key, one byte per pass. A pass whose
/// byte is the same in every key moves nothing and is skipped, so a
/// low-cardinality column costs about one pass.
template <typename Key>
void RadixSort(std::vector<KeyedRow<Key>>* items) {
  constexpr size_t kBytes = sizeof(Key);
  const size_t n = items->size();
  if (n < 2) return;
  std::vector<std::array<uint32_t, 256>> counts(kBytes);
  for (auto& count : counts) count.fill(0);
  for (const KeyedRow<Key>& item : *items) {
    for (size_t b = 0; b < kBytes; ++b) {
      ++counts[b][(item.key >> (8 * b)) & 0xff];
    }
  }
  std::vector<KeyedRow<Key>> scratch(n);
  for (size_t b = 0; b < kBytes; ++b) {
    std::array<uint32_t, 256>& count = counts[b];
    if (count[(items->front().key >> (8 * b)) & 0xff] == n) continue;
    uint32_t offset = 0;
    for (uint32_t& c : count) {
      const uint32_t here = c;
      c = offset;
      offset += here;
    }
    for (const KeyedRow<Key>& item : *items) {
      scratch[count[(item.key >> (8 * b)) & 0xff]++] = item;
    }
    items->swap(scratch);
  }
}

/// A string's sort key: its first kPrefix bytes as two big-endian words
/// (zero padded), so that integer order is byte order, plus its length.
/// Equal prefixes order the shorter string first (it is a prefix of the
/// other) unless both strings are longer than the key.
struct StringSortKey {
  static constexpr size_t kPrefix = 16;

  StringSortKey() = default;
  StringSortKey(const std::string& s, size_t r)
      : high(Word(s, 0)), low(Word(s, 8)), len(s.size()), row(uint32_t(r)) {}

  static uint64_t Word(const std::string& s, size_t at) {
    uint8_t bytes[8] = {};
    if (at < s.size()) {
      std::memcpy(bytes, s.data() + at, std::min<size_t>(8, s.size() - at));
    }
    uint64_t word = 0;
    for (uint8_t b : bytes) word = word << 8 | b;
    return word;
  }

  uint64_t high = 0;
  uint64_t low = 0;
  size_t len = 0;
  uint32_t row = 0;
};

/// Calls fn(row, starts_run) for every row of `values` in (DictionaryLess
/// value, row id) order: one stable sort of the row permutation. starts_run
/// is true for the first row of each run of equal values. Numeric values
/// radix-sort on SortKey; strings comparison-sort on StringSortKey.
template <typename T, typename Fn>
void ForEachSortedRow(const std::vector<T>& values, Fn&& fn) {
  const size_t n = values.size();
  HYTAP_ASSERT(n <= std::numeric_limits<uint32_t>::max(),
               "a dictionary column holds at most 2^32 - 1 rows");
  if constexpr (std::is_same_v<T, std::string>) {
    std::vector<StringSortKey> keys(n);
    for (size_t r = 0; r < n; ++r) keys[r] = StringSortKey(values[r], r);
    // Only strings longer than the key prefix that tie on it are compared
    // in full.
    auto tail_compare = [&](const StringSortKey& a, const StringSortKey& b) {
      return a.len > StringSortKey::kPrefix && b.len > StringSortKey::kPrefix
                 ? values[a.row].compare(values[b.row])
                 : 0;
    };
    std::sort(keys.begin(), keys.end(),
              [&](const StringSortKey& a, const StringSortKey& b) {
                if (a.high != b.high) return a.high < b.high;
                if (a.low != b.low) return a.low < b.low;
                if (const int c = tail_compare(a, b); c != 0) return c < 0;
                if (a.len != b.len) return a.len < b.len;
                return a.row < b.row;
              });
    for (size_t i = 0; i < n; ++i) {
      const bool starts_run =
          i == 0 || keys[i].high != keys[i - 1].high ||
          keys[i].low != keys[i - 1].low || keys[i].len != keys[i - 1].len ||
          tail_compare(keys[i], keys[i - 1]) != 0;
      fn(keys[i].row, starts_run);
    }
  } else {
    using Key = decltype(SortKey(T{}));
    std::vector<KeyedRow<Key>> items(n);
    for (size_t r = 0; r < n; ++r) {
      items[r] = {SortKey(values[r]), uint32_t(r)};
    }
    RadixSort(&items);
    for (size_t i = 0; i < n; ++i) {
      fn(items[i].row, i == 0 || items[i].key != items[i - 1].key);
    }
  }
}

}  // namespace

template <typename T>
OrderPreservingDictionary<T> OrderPreservingDictionary<T>::Build(
    const std::vector<T>& values) {
  return Encode(values, nullptr);
}

template <typename T>
OrderPreservingDictionary<T> OrderPreservingDictionary<T>::Encode(
    const std::vector<T>& values, std::vector<uint32_t>* codes) {
  OrderPreservingDictionary dict;
  if (codes != nullptr) codes->resize(values.size());
  ForEachSortedRow(values, [&](uint32_t row, bool starts_run) {
    if (starts_run) dict.values_.push_back(values[row]);
    if (codes != nullptr) {
      (*codes)[row] = uint32_t(dict.values_.size() - 1);
    }
  });
  dict.values_.shrink_to_fit();
  return dict;
}

template <typename T>
size_t OrderPreservingDictionary<T>::MemoryUsageFor(
    const std::vector<T>& values, size_t* entries) {
  *entries = 0;
  size_t string_bytes = 0;
  ForEachSortedRow(values, [&](uint32_t row, bool starts_run) {
    if (!starts_run) return;
    ++*entries;
    if constexpr (std::is_same_v<T, std::string>) {
      string_bytes += StringBytes(values[row]);
    }
  });
  return *entries * sizeof(T) + string_bytes;
}

template <typename T>
std::optional<ValueId> OrderPreservingDictionary<T>::CodeFor(
    const T& value) const {
  auto it = std::lower_bound(values_.begin(), values_.end(), value);
  if (it == values_.end() || *it != value) return std::nullopt;
  return static_cast<ValueId>(it - values_.begin());
}

template <typename T>
ValueId OrderPreservingDictionary<T>::LowerBoundCode(const T& value) const {
  auto it = std::lower_bound(values_.begin(), values_.end(), value);
  return static_cast<ValueId>(it - values_.begin());
}

template <typename T>
ValueId OrderPreservingDictionary<T>::UpperBoundCode(const T& value) const {
  auto it = std::upper_bound(values_.begin(), values_.end(), value);
  return static_cast<ValueId>(it - values_.begin());
}

template <typename T>
const T& OrderPreservingDictionary<T>::ValueFor(ValueId code) const {
  HYTAP_ASSERT(code < values_.size(), "dictionary code out of range");
  return values_[code];
}

template <typename T>
size_t OrderPreservingDictionary<T>::MemoryUsage() const {
  return PayloadBytes(values_);
}

template <typename T>
ValueId UnsortedDictionary<T>::GetOrAdd(const T& value) {
  auto [it, inserted] =
      value_ids_.try_emplace(value, static_cast<ValueId>(values_.size()));
  if (inserted) values_.push_back(value);
  return it->second;
}

template <typename T>
std::optional<ValueId> UnsortedDictionary<T>::CodeFor(const T& value) const {
  auto it = value_ids_.find(value);
  if (it == value_ids_.end()) return std::nullopt;
  return it->second;
}

template <typename T>
const T& UnsortedDictionary<T>::ValueFor(ValueId code) const {
  HYTAP_ASSERT(code < values_.size(), "dictionary code out of range");
  return values_[code];
}

template <typename T>
size_t UnsortedDictionary<T>::MemoryUsage() const {
  // Hash-map overhead approximated by bucket pointers + nodes.
  return PayloadBytes(values_) +
         value_ids_.bucket_count() * sizeof(void*) +
         value_ids_.size() * (sizeof(T) + sizeof(ValueId) + 2 * sizeof(void*));
}

template class OrderPreservingDictionary<int32_t>;
template class OrderPreservingDictionary<int64_t>;
template class OrderPreservingDictionary<float>;
template class OrderPreservingDictionary<double>;
template class OrderPreservingDictionary<std::string>;

template class UnsortedDictionary<int32_t>;
template class UnsortedDictionary<int64_t>;
template class UnsortedDictionary<float>;
template class UnsortedDictionary<double>;
template class UnsortedDictionary<std::string>;

}  // namespace hytap
