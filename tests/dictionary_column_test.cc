#include "storage/dictionary_column.h"

#include <gtest/gtest.h>

#include "common/random.h"

namespace hytap {
namespace {

TEST(DictionaryColumnTest, RoundTrip) {
  auto col = DictionaryColumn<int32_t>::Build({5, 3, 5, 1, 9, 3});
  ASSERT_EQ(col->size(), 6u);
  EXPECT_EQ(col->distinct_count(), 4u);
  EXPECT_EQ(col->Get(0), 5);
  EXPECT_EQ(col->Get(3), 1);
  EXPECT_EQ(col->GetValue(4), Value(int32_t{9}));
}

TEST(DictionaryColumnTest, ScanEquality) {
  auto col = DictionaryColumn<int32_t>::Build({5, 3, 5, 1, 9, 3});
  PositionList out;
  Value v(int32_t{5});
  col->ScanBetween(&v, &v, &out);
  EXPECT_EQ(out, (PositionList{0, 2}));
}

TEST(DictionaryColumnTest, ScanRange) {
  auto col = DictionaryColumn<int32_t>::Build({5, 3, 5, 1, 9, 3});
  PositionList out;
  Value lo(int32_t{3}), hi(int32_t{5});
  col->ScanBetween(&lo, &hi, &out);
  EXPECT_EQ(out, (PositionList{0, 1, 2, 5}));
}

TEST(DictionaryColumnTest, ScanUnbounded) {
  auto col = DictionaryColumn<int32_t>::Build({5, 3, 9});
  PositionList all;
  col->ScanBetween(nullptr, nullptr, &all);
  EXPECT_EQ(all, (PositionList{0, 1, 2}));
  PositionList ge5;
  Value lo(int32_t{5});
  col->ScanBetween(&lo, nullptr, &ge5);
  EXPECT_EQ(ge5, (PositionList{0, 2}));
  PositionList le5;
  Value hi(int32_t{5});
  col->ScanBetween(nullptr, &hi, &le5);
  EXPECT_EQ(le5, (PositionList{0, 1}));
}

TEST(DictionaryColumnTest, ScanMissingValue) {
  auto col = DictionaryColumn<int32_t>::Build({5, 3, 9});
  PositionList out;
  Value v(int32_t{4});  // not present
  col->ScanBetween(&v, &v, &out);
  EXPECT_TRUE(out.empty());
  // Range covering no dictionary entries.
  Value lo(int32_t{6}), hi(int32_t{8});
  col->ScanBetween(&lo, &hi, &out);
  EXPECT_TRUE(out.empty());
  // Inverted range.
  Value lo2(int32_t{9}), hi2(int32_t{3});
  col->ScanBetween(&lo2, &hi2, &out);
  EXPECT_TRUE(out.empty());
}

TEST(DictionaryColumnTest, Probe) {
  auto col = DictionaryColumn<int32_t>::Build({5, 3, 5, 1, 9, 3});
  PositionList candidates{1, 2, 4, 5};
  PositionList out;
  Value lo(int32_t{3}), hi(int32_t{5});
  col->Probe(&lo, &hi, candidates, &out);
  EXPECT_EQ(out, (PositionList{1, 2, 5}));
}

TEST(DictionaryColumnTest, Strings) {
  auto col = DictionaryColumn<std::string>::Build(
      {"pear", "apple", "fig", "apple"});
  PositionList out;
  Value v(std::string("apple"));
  col->ScanBetween(&v, &v, &out);
  EXPECT_EQ(out, (PositionList{1, 3}));
  EXPECT_EQ(col->GetValue(0), Value(std::string("pear")));
}

TEST(DictionaryColumnTest, Doubles) {
  auto col = DictionaryColumn<double>::Build({1.5, -2.0, 1.5, 0.0});
  PositionList out;
  Value lo(-1.0), hi(2.0);
  col->ScanBetween(&lo, &hi, &out);
  EXPECT_EQ(out, (PositionList{0, 2, 3}));
}

TEST(DictionaryColumnTest, BuildTypedDispatch) {
  const TypedColumn values = std::vector<int64_t>{10, 20};
  auto col = BuildDictionaryColumn(values);
  EXPECT_EQ(col->type(), DataType::kInt64);
  EXPECT_EQ(col->GetValue(1), Value(int64_t{20}));
}

TEST(DictionaryColumnTest, MemoryUsageGrowsWithData) {
  Rng rng(3);
  std::vector<int32_t> small, large;
  for (int i = 0; i < 100; ++i) small.push_back(int32_t(rng.NextBounded(10)));
  for (int i = 0; i < 100000; ++i) {
    large.push_back(int32_t(rng.NextBounded(100000)));
  }
  auto c1 = DictionaryColumn<int32_t>::Build(small);
  auto c2 = DictionaryColumn<int32_t>::Build(large);
  EXPECT_LT(c1->MemoryUsage(), c2->MemoryUsage());
}

// Property: scan on dictionary codes == naive scan on raw values.
class DictionaryColumnPropertyTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DictionaryColumnPropertyTest, ScanMatchesNaive) {
  Rng rng(GetParam());
  std::vector<int32_t> values;
  for (int i = 0; i < 2000; ++i) values.push_back(int32_t(rng.NextInt(-50, 50)));
  auto col = DictionaryColumn<int32_t>::Build(values);
  for (int trial = 0; trial < 20; ++trial) {
    int32_t lo = int32_t(rng.NextInt(-60, 60));
    int32_t hi = int32_t(rng.NextInt(-60, 60));
    if (lo > hi) std::swap(lo, hi);
    Value vlo(lo), vhi(hi);
    PositionList got;
    col->ScanBetween(&vlo, &vhi, &got);
    PositionList want;
    for (size_t r = 0; r < values.size(); ++r) {
      if (values[r] >= lo && values[r] <= hi) want.push_back(r);
    }
    ASSERT_EQ(got, want) << "range [" << lo << "," << hi << "]";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DictionaryColumnPropertyTest,
                         ::testing::Values(1, 5, 23));

}  // namespace
}  // namespace hytap
