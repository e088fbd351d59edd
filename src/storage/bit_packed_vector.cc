#include "storage/bit_packed_vector.h"

#include <algorithm>
#include <cstring>

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define HYTAP_AVX2_KERNEL 1
#endif

namespace hytap {

namespace {

static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__,
              "unaligned code loads assume little-endian words");

/// Rows per match mask.
constexpr size_t kBlockRows = 64;
/// Widest code whose bits, at any bit offset (<= 7) inside its first byte,
/// fit one unaligned 8-byte load.
constexpr uint32_t kMaxLoadBits = 57;
/// Widest code that fits one 4-byte gather lane the same way.
constexpr uint32_t kMaxGatherBits = 25;

/// Streams the codes of rows [begin, end): one running 64-bit word cursor,
/// no per-row word/offset division. Calls emit(row, code) in row order.
template <typename Emit>
inline void ForEachCode(const uint64_t* words, uint32_t bits, uint64_t mask,
                        size_t begin, size_t end, Emit&& emit) {
  const size_t first_bit = begin * bits;
  size_t word = first_bit >> 6;
  uint32_t offset = static_cast<uint32_t>(first_bit & 63);
  for (size_t row = begin; row < end; ++row) {
    uint64_t code = words[word] >> offset;
    const uint32_t consumed = offset + bits;
    if (consumed > 64) {
      // The code straddles into the next word (guaranteed to exist: Append
      // allocated it when the straddling code was written).
      code |= words[word + 1] << (64 - offset);
    }
    emit(row, code & mask);
    offset = consumed & 63;
    word += consumed >> 6;
  }
}

/// Number of leading rows whose `load_bytes`-byte load at byte
/// (row * bits) / 8 stays inside a `payload_bytes` payload.
inline size_t LoadSafeRows(size_t payload_bytes, uint32_t bits,
                           size_t load_bytes) {
  if (payload_bytes < load_bytes) return 0;
  return ((payload_bytes - load_bytes) * 8 + 7) / bits + 1;
}

/// The code of the row starting at bit `bit`, by one unaligned 8-byte load
/// (widths <= kMaxLoadBits, rows below LoadSafeRows(..., 8)).
inline uint64_t LoadCode(const uint8_t* bytes, size_t bit, uint64_t mask) {
  uint64_t word;
  std::memcpy(&word, bytes + (bit >> 3), sizeof(word));
  return (word >> (bit & 7)) & mask;
}

/// Bit i is set iff lo <= code(row + i) < lo + span, for i < count: the
/// single unsigned test `code - lo < span` (a code below lo wraps around).
inline uint64_t MaskByLoad(const uint8_t* bytes, uint32_t bits, uint64_t mask,
                           size_t row, size_t count, uint64_t lo,
                           uint64_t span) {
  uint64_t match = 0;
  size_t bit = row * bits;
  for (size_t i = 0; i < count; ++i, bit += bits) {
    match |= uint64_t{LoadCode(bytes, bit, mask) - lo < span} << i;
  }
  return match;
}

/// MaskByLoad via the word cursor: any width, any row.
inline uint64_t MaskByCursor(const uint64_t* words, uint32_t bits,
                             uint64_t mask, size_t row, size_t count,
                             uint64_t lo, uint64_t span) {
  uint64_t match = 0;
  ForEachCode(words, bits, mask, row, row + count,
              [&](size_t r, uint64_t code) {
                match |= uint64_t{code - lo < span} << (r - row);
              });
  return match;
}

#ifdef HYTAP_AVX2_KERNEL
/// MaskByLoad for one full block of kBlockRows rows: widths <=
/// kMaxGatherBits, rows below LoadSafeRows(..., 4). Requires lo + span <=
/// mask + 1, so every operand fits 32 bits.
__attribute__((target("avx2"))) uint64_t MaskByGather(
    const uint8_t* bytes, uint32_t bits, uint64_t mask, size_t row,
    uint64_t lo, uint64_t span) {
  const size_t first_bit = row * bits;
  // Lane offsets are bits relative to the block's first byte, so they stay
  // small (< 8 + 64 * 25) whatever the row.
  const int* base = reinterpret_cast<const int*>(bytes + (first_bit >> 3));
  const int w = static_cast<int>(bits);
  __m256i bit = _mm256_add_epi32(
      _mm256_setr_epi32(0, w, 2 * w, 3 * w, 4 * w, 5 * w, 6 * w, 7 * w),
      _mm256_set1_epi32(static_cast<int>(first_bit & 7)));
  const __m256i step = _mm256_set1_epi32(8 * w);
  const __m256i seven = _mm256_set1_epi32(7);
  const __m256i code_mask = _mm256_set1_epi32(static_cast<int>(mask));
  const __m256i vlo = _mm256_set1_epi32(static_cast<int>(lo));
  // Unsigned 32-bit `diff < span` as a signed compare of sign-flipped values.
  const __m256i sign = _mm256_set1_epi32(INT32_MIN);
  const __m256i vspan =
      _mm256_xor_si256(_mm256_set1_epi32(static_cast<int>(span)), sign);
  uint64_t match = 0;
  for (size_t lane_group = 0; lane_group < kBlockRows / 8; ++lane_group) {
    __m256i code =
        _mm256_i32gather_epi32(base, _mm256_srli_epi32(bit, 3), 1);
    code = _mm256_and_si256(
        _mm256_srlv_epi32(code, _mm256_and_si256(bit, seven)), code_mask);
    const __m256i diff =
        _mm256_xor_si256(_mm256_sub_epi32(code, vlo), sign);
    const __m256i hit = _mm256_cmpgt_epi32(vspan, diff);
    match |= uint64_t(uint32_t(_mm256_movemask_ps(_mm256_castsi256_ps(hit))))
             << (8 * lane_group);
    bit = _mm256_add_epi32(bit, step);
  }
  return match;
}
#else
uint64_t MaskByGather(const uint8_t*, uint32_t, uint64_t, size_t, uint64_t,
                      uint64_t) {
  HYTAP_UNREACHABLE("AVX2 kernel not built for this target");
}
#endif

/// Appends row + i for every set bit i of `match`, ascending.
inline void EmitMatches(uint64_t match, size_t row, PositionList* out) {
  for (; match != 0; match &= match - 1) {
    out->push_back(row + static_cast<size_t>(__builtin_ctzll(match)));
  }
}

/// Appends every row in [begin, end) with lo <= code < lo + span. Requires
/// span >= 1 and lo + span <= mask + 1 (or a 64-bit width).
void ScanCodes(BitPackedVector::Kernel kernel, const uint64_t* words,
               size_t word_count, uint32_t bits, uint64_t mask, size_t begin,
               size_t end, uint64_t lo, uint64_t span, PositionList* out) {
  const uint8_t* bytes = reinterpret_cast<const uint8_t*>(words);
  const size_t payload = word_count * sizeof(uint64_t);
  const size_t load_end =
      bits <= kMaxLoadBits ? LoadSafeRows(payload, bits, 8) : 0;
  const size_t gather_end =
      kernel == BitPackedVector::Kernel::kAvx2 && bits <= kMaxGatherBits
          ? LoadSafeRows(payload, bits, 4)
          : 0;
  for (size_t row = begin; row < end; row += kBlockRows) {
    const size_t count = std::min(kBlockRows, end - row);
    uint64_t match;
    if (count == kBlockRows && row + kBlockRows <= gather_end) {
      match = MaskByGather(bytes, bits, mask, row, lo, span);
    } else if (row + count <= load_end) {
      match = MaskByLoad(bytes, bits, mask, row, count, lo, span);
    } else {
      match = MaskByCursor(words, bits, mask, row, count, lo, span);
    }
    EmitMatches(match, row, out);
  }
}

/// The kernel ScanEqual/ScanRange use: kAvx2 where the CPU supports it.
BitPackedVector::Kernel ActiveKernel() {
  return BitPackedVector::KernelSupported(BitPackedVector::Kernel::kAvx2)
             ? BitPackedVector::Kernel::kAvx2
             : BitPackedVector::Kernel::kPortable;
}

}  // namespace

bool BitPackedVector::KernelSupported(Kernel kernel) {
  if (kernel == Kernel::kPortable) return true;
#ifdef HYTAP_AVX2_KERNEL
  static const bool avx2 = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return avx2;
#else
  return false;
#endif
}

BitPackedVector::BitPackedVector(uint32_t bits) : bits_(bits) {
  HYTAP_ASSERT(bits >= 1 && bits <= 64, "bit width must be in [1, 64]");
  mask_ = bits == 64 ? ~0ULL : ((1ULL << bits) - 1);
}

uint32_t BitPackedVector::BitsFor(uint64_t max_value) {
  uint32_t bits = 1;
  while (bits < 64 && (max_value >> bits) != 0) ++bits;
  return bits;
}

void BitPackedVector::Reserve(size_t count) {
  words_.reserve((count * bits_ + 63) / 64 + 1);
}

void BitPackedVector::Append(uint64_t value) {
  HYTAP_ASSERT((value & ~mask_) == 0, "value exceeds bit width");
  const size_t bit_pos = size_ * bits_;
  const size_t word = bit_pos / 64;
  const uint32_t offset = bit_pos % 64;
  if (word >= words_.size()) words_.push_back(0);
  words_[word] |= value << offset;
  if (offset + bits_ > 64) {
    // Spills into the next word.
    words_.push_back(value >> (64 - offset));
  }
  zone_map_.Update(size_, value);
  ++size_;
}

void BitPackedVector::Set(size_t index, uint64_t value) {
  HYTAP_ASSERT(index < size_, "BitPackedVector index out of range");
  HYTAP_ASSERT((value & ~mask_) == 0, "value exceeds bit width");
  const size_t bit_pos = index * bits_;
  const size_t word = bit_pos / 64;
  const uint32_t offset = bit_pos % 64;
  words_[word] = (words_[word] & ~(mask_ << offset)) | (value << offset);
  if (offset + bits_ > 64) {
    const uint32_t high_bits = offset + bits_ - 64;
    const uint64_t high_mask = (1ULL << high_bits) - 1;
    words_[word + 1] =
        (words_[word + 1] & ~high_mask) | (value >> (64 - offset));
  }
  // Overwrites only widen the zone bounds (recomputing the exact min/max
  // would cost a zone rescan); the map stays a conservative cover, which is
  // all pruning correctness requires.
  zone_map_.Update(index, value);
}

void BitPackedVector::ScanEqual(uint64_t target, size_t row_begin,
                                size_t row_end, PositionList* out) const {
  HYTAP_ASSERT(row_end <= size_, "scan range out of bounds");
  if (row_begin >= row_end || target > mask_) return;
  ScanCodes(ActiveKernel(), words_.data(), words_.size(), bits_, mask_,
            row_begin, row_end, target, 1, out);
}

void BitPackedVector::ScanRange(uint64_t code_lo, uint64_t code_hi,
                                size_t row_begin, size_t row_end,
                                PositionList* out) const {
  ScanRangeWith(ActiveKernel(), code_lo, code_hi, row_begin, row_end, out);
}

void BitPackedVector::ScanRangeWith(Kernel kernel, uint64_t code_lo,
                                    uint64_t code_hi, size_t row_begin,
                                    size_t row_end, PositionList* out) const {
  HYTAP_ASSERT(row_end <= size_, "scan range out of bounds");
  HYTAP_ASSERT(KernelSupported(kernel), "scan kernel not supported here");
  if (row_begin >= row_end || code_lo >= code_hi || code_lo > mask_) return;
  // Clamp to the code domain so the span fits the width (the AVX2 lanes
  // are 32 bits wide).
  if (bits_ < 64) code_hi = std::min(code_hi, mask_ + 1);
  ScanCodes(kernel, words_.data(), words_.size(), bits_, mask_, row_begin,
            row_end, code_lo, code_hi - code_lo, out);
}

void BitPackedVector::DecodeRange(size_t row_begin, size_t row_end,
                                  uint64_t* out) const {
  HYTAP_ASSERT(row_end <= size_, "decode range out of bounds");
  if (row_begin >= row_end) return;
  size_t row = row_begin;
  if (bits_ <= kMaxLoadBits) {
    const uint8_t* bytes = reinterpret_cast<const uint8_t*>(words_.data());
    const size_t load_end = std::min(
        row_end, LoadSafeRows(words_.size() * sizeof(uint64_t), bits_, 8));
    for (size_t bit = row * bits_; row < load_end; ++row, bit += bits_) {
      out[row - row_begin] = LoadCode(bytes, bit, mask_);
    }
  }
  ForEachCode(words_.data(), bits_, mask_, row, row_end,
              [&](size_t r, uint64_t code) { out[r - row_begin] = code; });
}

}  // namespace hytap
