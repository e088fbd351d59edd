#ifndef HYTAP_STORAGE_BIT_PACKED_VECTOR_H_
#define HYTAP_STORAGE_BIT_PACKED_VECTOR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/assert.h"
#include "storage/column.h"
#include "storage/zone_map.h"

namespace hytap {

/// Bit-packed vector of unsigned integers with a fixed bit width.
///
/// This is the attribute ("value id") vector of a dictionary-encoded MRC: with
/// a dictionary of D entries each code occupies ceil(log2(D)) bits. Get() is
/// branch-free (at most two word reads); Append() is amortized O(1).
///
/// Scan-heavy callers should prefer the batch kernels (ScanEqual, ScanRange,
/// DecodeRange). They are branch-free per row: ScanEqual/ScanRange evaluate
/// 64 rows at a time into a match bitmask with the single unsigned test
/// `code - lo < hi - lo` and emit positions with ctz; DecodeRange shares the
/// same unaligned code load. They are safe to call concurrently from multiple
/// threads on arbitrary (even overlapping) row ranges.
class BitPackedVector {
 public:
  /// Match-mask kernels behind ScanEqual/ScanRange. Every kernel produces
  /// the same positions, bit for bit:
  ///  - kPortable: one unaligned 8-byte load per code for widths <= 57; the
  ///    running word cursor for wider codes and for tail rows whose 8-byte
  ///    load would run past the payload.
  ///  - kAvx2: 8 codes per 32-bit gather for widths <= 25, then shift,
  ///    compare and movemask; everything else as kPortable.
  enum class Kernel { kPortable, kAvx2 };

  /// True if `kernel` can run on this CPU (kPortable always can; kAvx2 is
  /// probed once per process). ScanEqual/ScanRange use kAvx2 where it can.
  static bool KernelSupported(Kernel kernel);

  /// `bits` must be in [1, 64].
  explicit BitPackedVector(uint32_t bits);

  /// Minimal bit width that can represent `max_value`.
  static uint32_t BitsFor(uint64_t max_value);

  void Append(uint64_t value);

  uint64_t Get(size_t index) const {
    HYTAP_ASSERT(index < size_, "BitPackedVector index out of range");
    const size_t bit_pos = index * bits_;
    const size_t word = bit_pos / 64;
    const uint32_t offset = bit_pos % 64;
    uint64_t result = words_[word] >> offset;
    if (offset + bits_ > 64) {
      result |= words_[word + 1] << (64 - offset);
    }
    return result & mask_;
  }

  void Set(size_t index, uint64_t value);

  /// Appends every row in [row_begin, row_end) whose code equals `target`
  /// to `out` (ascending).
  void ScanEqual(uint64_t target, size_t row_begin, size_t row_end,
                 PositionList* out) const;

  /// Appends every row in [row_begin, row_end) whose code lies in the
  /// half-open interval [code_lo, code_hi) to `out` (ascending).
  void ScanRange(uint64_t code_lo, uint64_t code_hi, size_t row_begin,
                 size_t row_end, PositionList* out) const;

  /// ScanRange on an explicit kernel, which must be supported (tests
  /// compare the kernels directly).
  void ScanRangeWith(Kernel kernel, uint64_t code_lo, uint64_t code_hi,
                     size_t row_begin, size_t row_end,
                     PositionList* out) const;

  /// Unpacks the codes of rows [row_begin, row_end) into out[0 ..
  /// row_end - row_begin).
  void DecodeRange(size_t row_begin, size_t row_end, uint64_t* out) const;

  size_t size() const { return size_; }
  uint32_t bits() const { return bits_; }

  /// Heap bytes used by the packed payload (occupied words, not vector
  /// capacity: the capacity figure would inflate the scan cost model and
  /// the DRAM-budget accounting after Append-heavy builds). Zone-map
  /// metadata (~0.003 %) is excluded and reported separately.
  size_t MemoryUsage() const { return words_.size() * sizeof(uint64_t); }

  /// MemoryUsage() of `count` codes appended at width `bits`.
  static size_t MemoryUsageFor(uint32_t bits, size_t count) {
    return (count * bits + 63) / 64 * sizeof(uint64_t);
  }

  void Reserve(size_t count);

  /// Per-`kZoneMapRows`-block min/max codes, maintained on Append and
  /// conservatively widened on Set. Scans consult it (when
  /// `ZoneMapsEnabled()`) to skip whole blocks whose code bounds miss the
  /// predicate's code interval.
  const ZoneMap& zone_map() const { return zone_map_; }

 private:
  uint32_t bits_;
  uint64_t mask_;
  size_t size_ = 0;
  std::vector<uint64_t> words_;
  ZoneMap zone_map_;
};

}  // namespace hytap

#endif  // HYTAP_STORAGE_BIT_PACKED_VECTOR_H_
