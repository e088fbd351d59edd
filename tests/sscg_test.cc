#include "storage/sscg.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "common/random.h"
#include "storage/zone_map.h"

namespace hytap {
namespace {

Schema TestSchema() {
  Schema schema;
  schema.push_back({"id", DataType::kInt32, 0});
  schema.push_back({"qty", DataType::kInt32, 0});
  schema.push_back({"amount", DataType::kDouble, 0});
  schema.push_back({"info", DataType::kString, 16});
  return schema;
}

std::vector<Row> TestRows(size_t n) {
  std::vector<Row> rows;
  rows.reserve(n);
  for (size_t r = 0; r < n; ++r) {
    rows.push_back(Row{Value(int32_t(r)), Value(int32_t(r % 10)),
                       Value(double(r) * 0.5),
                       Value("info-" + std::to_string(r))});
  }
  return rows;
}

/// The Sscg constructor's input: `rows` (member order) as slot columns.
std::vector<TypedColumn> Columns(const RowLayout& layout,
                                 const std::vector<Row>& rows) {
  return TransposeRows(layout.SlotTypes(), rows);
}

class SscgTest : public ::testing::Test {
 protected:
  SscgTest()
      : store_(DeviceKind::kXpoint), buffers_(&store_, 8) {}

  SecondaryStore store_;
  BufferManager buffers_;
};

TEST_F(SscgTest, BuildWritesPages) {
  RowLayout layout(TestSchema(), {0, 1, 2, 3});
  uint64_t write_ns = 0;
  Sscg sscg(layout, Columns(layout, TestRows(1000)), &store_, &write_ns);
  EXPECT_EQ(sscg.row_count(), 1000u);
  // Row width 32 bytes -> 128 rows per page -> 8 pages.
  EXPECT_EQ(sscg.page_count(), 8u);
  EXPECT_GT(write_ns, 0u);
  EXPECT_EQ(sscg.StorageBytes(), 8u * kPageSize);
}

TEST_F(SscgTest, ReconstructTupleMatches) {
  RowLayout layout(TestSchema(), {0, 1, 2, 3});
  const auto rows = TestRows(500);
  Sscg sscg(layout, Columns(layout, rows), &store_);
  Rng rng(3);
  for (int trial = 0; trial < 50; ++trial) {
    const RowId r = rng.NextBounded(500);
    IoStats io;
    Row got = *sscg.ReconstructTuple(r, &buffers_, 1, &io);
    ASSERT_EQ(got.size(), 4u);
    EXPECT_EQ(got, rows[r]);
  }
}

TEST_F(SscgTest, ReconstructionIsSinglePageRead) {
  // Paper §II-A: full-width tuple reconstruction = one 4 KB page access.
  RowLayout layout(TestSchema(), {0, 1, 2, 3});
  Sscg sscg(layout, Columns(layout, TestRows(1000)), &store_);
  IoStats io;
  sscg.ReconstructTuple(999, &buffers_, 1, &io);
  EXPECT_EQ(io.page_reads + io.cache_hits, 1u);
}

TEST_F(SscgTest, CacheHitsAreCheap) {
  RowLayout layout(TestSchema(), {0, 1, 2, 3});
  Sscg sscg(layout, Columns(layout, TestRows(100)), &store_);
  IoStats miss, hit;
  sscg.ReconstructTuple(0, &buffers_, 1, &miss);
  sscg.ReconstructTuple(1, &buffers_, 1, &hit);  // same page
  EXPECT_GT(miss.device_ns, 0u);
  EXPECT_EQ(hit.device_ns, 0u);
  EXPECT_EQ(hit.cache_hits, 1u);
  EXPECT_LT(hit.TotalNs(), miss.TotalNs());
}

TEST_F(SscgTest, ProbeValue) {
  RowLayout layout(TestSchema(), {1, 2});
  const auto rows = TestRows(300);
  std::vector<Row> subset;
  for (const Row& r : rows) subset.push_back(Row{r[1], r[2]});
  Sscg sscg(layout, Columns(layout, subset), &store_);
  IoStats io;
  EXPECT_EQ(*sscg.ProbeValue(42, 0, &buffers_, 1, &io), Value(int32_t{2}));
  EXPECT_EQ(*sscg.ProbeValue(42, 1, &buffers_, 1, &io), Value(21.0));
}

TEST_F(SscgTest, ScanSlotFindsMatches) {
  RowLayout layout(TestSchema(), {0, 1});
  std::vector<Row> rows;
  for (size_t r = 0; r < 400; ++r) {
    rows.push_back(Row{Value(int32_t(r)), Value(int32_t(r % 10))});
  }
  Sscg sscg(layout, Columns(layout, rows), &store_);
  PositionList out;
  IoStats io;
  Value v(int32_t{7});
  sscg.ScanSlot(1, &v, &v, &buffers_, 1, &out, &io);
  ASSERT_EQ(out.size(), 40u);
  for (size_t k = 0; k < out.size(); ++k) EXPECT_EQ(out[k], 7 + 10 * k);
  // A scan reads every page of the group.
  EXPECT_EQ(io.page_reads + io.cache_hits, sscg.page_count());
}

TEST_F(SscgTest, ScanCostScalesWithGroupWidth) {
  // Fig. 9a: scanning one attribute in a wide group reads the full rows.
  std::vector<Row> narrow_rows, wide_rows;
  Schema wide_schema;
  for (int c = 0; c < 20; ++c) {
    wide_schema.push_back({"c" + std::to_string(c), DataType::kInt32, 0});
  }
  std::vector<ColumnId> all20;
  for (ColumnId c = 0; c < 20; ++c) all20.push_back(c);
  for (size_t r = 0; r < 2000; ++r) {
    Row wide;
    for (int c = 0; c < 20; ++c) wide.emplace_back(int32_t(r));
    wide_rows.push_back(std::move(wide));
    narrow_rows.push_back(Row{Value(int32_t(r))});
  }
  const RowLayout narrow_layout(wide_schema, {0});
  const RowLayout wide_layout(wide_schema, all20);
  Sscg narrow(narrow_layout, Columns(narrow_layout, narrow_rows), &store_);
  Sscg wide(wide_layout, Columns(wide_layout, wide_rows), &store_);
  EXPECT_GE(wide.page_count(), narrow.page_count() * 15);
}

TEST_F(SscgTest, ProbeSlotSharesPageFetches) {
  RowLayout layout(TestSchema(), {0, 1});
  std::vector<Row> rows;
  for (size_t r = 0; r < 1000; ++r) {
    rows.push_back(Row{Value(int32_t(r)), Value(int32_t(r % 3))});
  }
  Sscg sscg(layout, Columns(layout, rows), &store_);
  // Candidates all on the first page (rows 0..9, 512 rows/page for 8-byte
  // rows): only one miss expected.
  PositionList in{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  PositionList out;
  IoStats io;
  Value v(int32_t{0});
  sscg.ProbeSlot(1, &v, &v, in, &buffers_, 1, &out, &io);
  EXPECT_EQ(io.page_reads, 1u);
  EXPECT_EQ(out, (PositionList{0, 3, 6, 9}));
}

TEST_F(SscgTest, RawAccessMatchesTimedAccess) {
  RowLayout layout(TestSchema(), {0, 2});
  std::vector<Row> rows;
  for (size_t r = 0; r < 100; ++r) {
    rows.push_back(Row{Value(int32_t(r)), Value(double(r))});
  }
  Sscg sscg(layout, Columns(layout, rows), &store_);
  for (RowId r = 0; r < 100; r += 13) {
    EXPECT_EQ(sscg.RawValue(r, 0, store_), Value(int32_t(r)));
    EXPECT_EQ(layout.DeserializeRow(sscg.RawTuple(r, store_)), rows[r]);
  }
}

/// One member slot of every type, with the values numeric range filters
/// trip over: type extremes, NaN, -0.0/+0.0 and infinities.
class SscgTypedPredicateTest : public SscgTest {
 protected:
  static Schema TypedSchema() {
    Schema schema;
    schema.push_back({"i32", DataType::kInt32, 0});
    schema.push_back({"i64", DataType::kInt64, 0});
    schema.push_back({"f32", DataType::kFloat, 0});
    schema.push_back({"f64", DataType::kDouble, 0});
    schema.push_back({"str", DataType::kString, 8});
    return schema;
  }

  /// Bound values per slot; every (null | value) x (null | value) pair is
  /// tried, so lo > hi, NaN bounds and ±0.0 bounds all occur.
  static std::vector<Value> Specials(size_t slot) {
    constexpr float kFloatNan = std::numeric_limits<float>::quiet_NaN();
    constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
    constexpr double kInf = std::numeric_limits<double>::infinity();
    switch (slot) {
      case 0:
        return {Value(std::numeric_limits<int32_t>::min()),
                Value(std::numeric_limits<int32_t>::max()), Value(int32_t{-7}),
                Value(int32_t{0}), Value(int32_t{40})};
      case 1:
        return {Value(std::numeric_limits<int64_t>::min()),
                Value(std::numeric_limits<int64_t>::max()), Value(int64_t{-7}),
                Value(int64_t{0}), Value(int64_t{1} << 40)};
      case 2:
        return {Value(kFloatNan), Value(-0.0f), Value(0.0f),
                Value(float(-kInf)), Value(float(kInf)), Value(-2.5f),
                Value(30.0f)};
      case 3:
        return {Value(kNan), Value(-0.0), Value(0.0), Value(-kInf),
                Value(kInf), Value(-2.5), Value(30.0)};
      default:
        return {Value("a"), Value("m"), Value("zz"), Value("")};
    }
  }

  /// Rows mixing the specials (NaN included) with spread values over
  /// several pages. The first page holds spread values and NaN only, so the
  /// page synopsis prunes it for bounds past the spread.
  static std::vector<Row> TypedRows(size_t n, size_t rows_per_page) {
    std::vector<std::vector<Value>> specials;
    for (size_t slot = 0; slot < 5; ++slot) specials.push_back(Specials(slot));
    Rng rng(11);
    std::vector<Row> rows;
    for (size_t r = 0; r < n; ++r) {
      Row row;
      for (size_t slot = 0; slot < 5; ++slot) {
        if (r < rows_per_page) {
          if ((slot == 2 || slot == 3) && rng.NextBounded(3) == 0) {
            row.push_back(specials[slot][0]);  // NaN
            continue;
          }
        } else if (rng.NextBounded(3) == 0) {
          row.push_back(specials[slot][rng.NextBounded(specials[slot].size())]);
          continue;
        }
        const int64_t x = int64_t(rng.NextBounded(100)) - 50;
        switch (slot) {
          case 0: row.push_back(Value(int32_t(x))); break;
          case 1: row.push_back(Value(x * 1000003)); break;
          case 2: row.push_back(Value(float(x) * 0.75f)); break;
          case 3: row.push_back(Value(double(x) * 0.75)); break;
          default: row.push_back(Value(std::string(1, char('a' + x % 26))));
        }
      }
      rows.push_back(std::move(row));
    }
    return rows;
  }

  /// InRange's contract: !(v < lo) && !(hi < v), null = unbounded.
  static bool Reference(const Value& v, const Value* lo, const Value* hi) {
    return (lo == nullptr || !(v < *lo)) && (hi == nullptr || !(*hi < v));
  }

  void CheckAllBounds() {
    const RowLayout layout(TypedSchema(), {0, 1, 2, 3, 4});
    const size_t n = 700;  // 40-byte rows: 102 per page, 7 pages
    const Sscg sscg(
        layout, Columns(layout, TypedRows(n, layout.rows_per_page())), &store_);
    PositionList candidates;
    for (RowId r = 0; r < n; r += 3) candidates.push_back(r);
    for (size_t slot = 0; slot < 5; ++slot) {
      const std::vector<Value> specials = Specials(slot);
      std::vector<const Value*> bounds = {nullptr};
      for (const Value& v : specials) bounds.push_back(&v);
      for (const Value* lo : bounds) {
        for (const Value* hi : bounds) {
          PositionList scan_ref, probe_ref;
          for (RowId r = 0; r < n; ++r) {
            const Value v = layout.DeserializeSlot(
                store_.RawPage(sscg.page_ids()[layout.PageOf(r)]).data() +
                    layout.OffsetInPage(r),
                slot);
            if (!Reference(v, lo, hi)) continue;
            scan_ref.push_back(r);
            if (r % 3 == 0) probe_ref.push_back(r);
          }
          const std::string where =
              "slot=" + std::to_string(slot) +
              " lo=" + (lo ? lo->ToString() : "null") +
              " hi=" + (hi ? hi->ToString() : "null");
          PositionList scan, probe;
          IoStats io;
          ASSERT_TRUE(
              sscg.ScanSlot(slot, lo, hi, &buffers_, 2, &scan, &io).ok());
          EXPECT_EQ(scan, scan_ref) << where;
          ASSERT_TRUE(sscg.ProbeSlot(slot, lo, hi, candidates, &buffers_, 1,
                                     &probe, &io)
                          .ok());
          EXPECT_EQ(probe, probe_ref) << where;
        }
      }
    }
  }
};

TEST_F(SscgTypedPredicateTest, MatchesBoxedReferenceWithZoneMaps) {
  const bool zone_maps = ZoneMapsEnabled();
  SetZoneMapsEnabled(true);
  CheckAllBounds();
  SetZoneMapsEnabled(zone_maps);
}

TEST_F(SscgTypedPredicateTest, MatchesBoxedReferenceWithoutZoneMaps) {
  const bool zone_maps = ZoneMapsEnabled();
  SetZoneMapsEnabled(false);
  CheckAllBounds();
  SetZoneMapsEnabled(zone_maps);
}

TEST_F(SscgTest, WallTimeDividesAcrossThreads) {
  IoStats io;
  io.device_ns = 8000;
  io.dram_ns = 0;
  EXPECT_EQ(io.WallNs(8), 1000u);
  EXPECT_EQ(io.WallNs(1), 8000u);
  EXPECT_EQ(io.WallNs(0), 8000u);  // guards division by zero
}

}  // namespace
}  // namespace hytap
