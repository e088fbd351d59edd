#include "storage/bit_packed_vector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "common/random.h"

namespace hytap {
namespace {

TEST(BitPackedVectorTest, BitsFor) {
  EXPECT_EQ(BitPackedVector::BitsFor(0), 1u);
  EXPECT_EQ(BitPackedVector::BitsFor(1), 1u);
  EXPECT_EQ(BitPackedVector::BitsFor(2), 2u);
  EXPECT_EQ(BitPackedVector::BitsFor(3), 2u);
  EXPECT_EQ(BitPackedVector::BitsFor(4), 3u);
  EXPECT_EQ(BitPackedVector::BitsFor(255), 8u);
  EXPECT_EQ(BitPackedVector::BitsFor(256), 9u);
  EXPECT_EQ(BitPackedVector::BitsFor(~0ULL), 64u);
}

TEST(BitPackedVectorTest, AppendAndGetSmallWidth) {
  BitPackedVector v(3);
  for (uint64_t i = 0; i < 100; ++i) v.Append(i % 8);
  ASSERT_EQ(v.size(), 100u);
  for (size_t i = 0; i < 100; ++i) EXPECT_EQ(v.Get(i), i % 8);
}

TEST(BitPackedVectorTest, CrossWordBoundaries) {
  // Width 7 does not divide 64, so entries straddle word boundaries.
  BitPackedVector v(7);
  for (uint64_t i = 0; i < 200; ++i) v.Append(i % 128);
  for (size_t i = 0; i < 200; ++i) EXPECT_EQ(v.Get(i), i % 128) << i;
}

TEST(BitPackedVectorTest, SetOverwrites) {
  BitPackedVector v(5);
  for (uint64_t i = 0; i < 64; ++i) v.Append(i % 32);
  v.Set(0, 31);
  v.Set(63, 1);
  v.Set(13, 17);
  EXPECT_EQ(v.Get(0), 31u);
  EXPECT_EQ(v.Get(63), 1u);
  EXPECT_EQ(v.Get(13), 17u);
  // Neighbors untouched.
  EXPECT_EQ(v.Get(1), 1u);
  EXPECT_EQ(v.Get(12), 12u);
  EXPECT_EQ(v.Get(14), 14u);
}

TEST(BitPackedVectorTest, FullWidth64) {
  BitPackedVector v(64);
  const uint64_t values[] = {0, ~0ULL, 0x123456789abcdef0ULL, 42};
  for (uint64_t x : values) v.Append(x);
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(v.Get(i), values[i]);
}

// Property sweep: round-trip for every width.
class BitPackedWidthTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(BitPackedWidthTest, RandomRoundTrip) {
  const uint32_t bits = GetParam();
  const uint64_t mask = bits == 64 ? ~0ULL : (1ULL << bits) - 1;
  Rng rng(bits * 977 + 1);
  BitPackedVector v(bits);
  std::vector<uint64_t> expected;
  for (size_t i = 0; i < 500; ++i) {
    const uint64_t value = rng.Next() & mask;
    v.Append(value);
    expected.push_back(value);
  }
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(v.Get(i), expected[i]) << "bits=" << bits << " i=" << i;
  }
  // Overwrite everything and re-check.
  for (size_t i = 0; i < expected.size(); ++i) {
    expected[i] = rng.Next() & mask;
    v.Set(i, expected[i]);
  }
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(v.Get(i), expected[i]) << "bits=" << bits << " i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllWidths, BitPackedWidthTest,
                         ::testing::Range(1u, 65u));

TEST(BitPackedVectorDeathTest, ValueExceedsWidth) {
  BitPackedVector v(2);
  EXPECT_DEATH(v.Append(4), "exceeds bit width");
}

TEST(BitPackedVectorDeathTest, OutOfRangeGet) {
  BitPackedVector v(8);
  v.Append(1);
  EXPECT_DEATH(v.Get(1), "out of range");
}

TEST(BitPackedVectorTest, MemoryUsageScalesWithBits) {
  BitPackedVector narrow(2), wide(32);
  for (uint64_t i = 0; i < 10000; ++i) {
    narrow.Append(i % 4);
    wide.Append(i);
  }
  EXPECT_LT(narrow.MemoryUsage() * 4, wide.MemoryUsage());
}

TEST(BitPackedVectorTest, MemoryUsageIsExactWordCount) {
  // Must report the words actually holding data, not vector capacity
  // (Reserve over-allocates; MemoryUsage feeds the cost model).
  for (uint32_t bits : {1u, 7u, 32u, 63u, 64u}) {
    BitPackedVector v(bits);
    v.Reserve(100000);
    const size_t n = 1000;
    for (size_t i = 0; i < n; ++i) v.Append(0);
    const size_t expected_words = (n * bits + 63) / 64;
    EXPECT_EQ(v.MemoryUsage(), expected_words * sizeof(uint64_t))
        << "bits=" << bits;
  }
}

// Batch kernels (ScanEqual / ScanRange / DecodeRange) must agree with the
// per-row Get() reference at every width: codes drawn over the full width,
// several 64-row match-mask blocks plus a tail (whose 8-byte loads would
// run past the payload), sub-ranges starting mid-block and mid-word, empty
// and full-domain code ranges.
class BitPackedKernelTest : public ::testing::TestWithParam<uint32_t> {
 protected:
  static constexpr size_t kRows = 5 * 64 + 29;

  void SetUp() override {
    bits_ = GetParam();
    mask_ = bits_ == 64 ? ~0ULL : (1ULL << bits_) - 1;
    Rng rng(bits_ * 31 + 5);
    vector_ = std::make_unique<BitPackedVector>(bits_);
    for (size_t i = 0; i < kRows; ++i) {
      // Every tenth code repeats an earlier one so equality finds matches.
      const uint64_t value =
          i >= 10 && i % 10 == 0 ? ref_[rng.NextBounded(i)] : rng.Next() & mask_;
      vector_->Append(value);
      ref_.push_back(value);
    }
  }

  /// Half-open code ranges: quantile cuts of the drawn codes, equality,
  /// code_lo = 0, the full domain, a code_hi past the domain, empty ranges.
  std::vector<std::pair<uint64_t, uint64_t>> CodeRanges() const {
    std::vector<uint64_t> sorted = ref_;
    std::sort(sorted.begin(), sorted.end());
    const uint64_t q20 = sorted[kRows / 5], q30 = sorted[kRows * 3 / 10];
    const uint64_t q60 = sorted[kRows * 3 / 5], x = ref_[kRows / 2];
    std::vector<std::pair<uint64_t, uint64_t>> ranges = {
        {q20, q60}, {0, q30}, {x, x + 1}, {q60, q20}, {x, x},
        {0, mask_},  // all but the top code
        {q30, ~0ULL}};
    if (bits_ < 64) {
      ranges.push_back({0, mask_ + 1});  // the full domain
      ranges.push_back({mask_ + 1, ~0ULL});  // entirely above the domain
    }
    return ranges;
  }

  /// Compares ScanRangeWith(kernel) with a Get() reference over row ranges
  /// that start and end mid-block and mid-word.
  void CheckKernel(BitPackedVector::Kernel kernel) const {
    const std::pair<size_t, size_t> row_ranges[] = {
        {0, kRows},   {0, 0},       {1, 2},     {5, 70},
        {63, 65},     {64, 192},    {130, 131}, {100, kRows},
        {kRows - 3, kRows}};
    for (const auto& [lo, hi] : CodeRanges()) {
      for (const auto& [begin, end] : row_ranges) {
        PositionList got = {7}, want = {7};  // appends after existing rows
        vector_->ScanRangeWith(kernel, lo, hi, begin, end, &got);
        for (size_t i = begin; i < end; ++i) {
          const uint64_t code = vector_->Get(i);
          if (code >= lo && code < hi) want.push_back(i);
        }
        ASSERT_EQ(got, want) << "bits=" << bits_ << " code [" << lo << ","
                             << hi << ") rows [" << begin << "," << end
                             << ")";
      }
    }
  }

  uint32_t bits_ = 0;
  uint64_t mask_ = 0;
  std::unique_ptr<BitPackedVector> vector_;
  std::vector<uint64_t> ref_;
};

TEST_P(BitPackedKernelTest, PortableKernelMatchesGetReference) {
  CheckKernel(BitPackedVector::Kernel::kPortable);
}

TEST_P(BitPackedKernelTest, Avx2KernelMatchesGetReference) {
  if (!BitPackedVector::KernelSupported(BitPackedVector::Kernel::kAvx2)) {
    GTEST_SKIP() << "CPU lacks AVX2";
  }
  CheckKernel(BitPackedVector::Kernel::kAvx2);
}

TEST_P(BitPackedKernelTest, ScanEqualAndDecodeMatchGetReference) {
  for (size_t i = 0; i < kRows; ++i) ASSERT_EQ(vector_->Get(i), ref_[i]);
  const std::pair<size_t, size_t> row_ranges[] = {
      {0, kRows}, {0, 0}, {5, 70}, {63, 65}, {kRows - 3, kRows}};
  const uint64_t targets[] = {ref_[0], ref_[kRows / 2], ref_[kRows - 1],
                              mask_};
  for (const auto& [begin, end] : row_ranges) {
    for (uint64_t target : targets) {
      PositionList eq, eq_ref;
      vector_->ScanEqual(target, begin, end, &eq);
      for (size_t i = begin; i < end; ++i) {
        if (ref_[i] == target) eq_ref.push_back(i);
      }
      EXPECT_EQ(eq, eq_ref) << "bits=" << bits_ << " target=" << target;
    }
    std::vector<uint64_t> decoded(end - begin);
    vector_->DecodeRange(begin, end, decoded.data());
    for (size_t i = begin; i < end; ++i) {
      ASSERT_EQ(decoded[i - begin], ref_[i]) << "bits=" << bits_ << " i=" << i;
    }
  }
  // The kernels read the payload in place: MemoryUsage (which feeds the
  // scan cost model and the DRAM budget) stays the occupied word count.
  EXPECT_EQ(vector_->MemoryUsage(), (kRows * bits_ + 63) / 64 * 8);
}

INSTANTIATE_TEST_SUITE_P(AllWidths, BitPackedKernelTest,
                         ::testing::Range(1u, 65u));

TEST(BitPackedKernelTest, FullWidthExtremeValues) {
  // Width 64: every entry occupies exactly one word; mask must not clip.
  BitPackedVector v(64);
  const uint64_t values[] = {0, ~0ULL, 0x8000000000000000ULL, 1};
  for (uint64_t x : values) v.Append(x);
  std::vector<uint64_t> decoded(4);
  v.DecodeRange(0, 4, decoded.data());
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(decoded[i], values[i]);
  PositionList eq;
  v.ScanEqual(~0ULL, 0, 4, &eq);
  EXPECT_EQ(eq, PositionList{1});
}

}  // namespace
}  // namespace hytap
