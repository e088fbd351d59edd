#include "storage/disk_column.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "storage/row_layout.h"
#include "storage/sscg.h"

namespace hytap {
namespace {

class DiskColumnTest : public ::testing::Test {
 protected:
  DiskColumnTest() : store_(DeviceKind::kXpoint), buffers_(&store_, 16) {}

  SecondaryStore store_;
  BufferManager buffers_;
};

TEST_F(DiskColumnTest, RoundTrip) {
  ColumnDefinition def{"c", DataType::kInt32, 0};
  std::vector<Value> values;
  for (int32_t v : {5, 3, 5, 1, 9, 3}) values.emplace_back(v);
  DiskColumn column(def, values, &store_);
  EXPECT_EQ(column.row_count(), 6u);
  EXPECT_EQ(column.distinct_count(), 4u);
  for (RowId r = 0; r < 6; ++r) {
    EXPECT_EQ(*column.GetValue(r, &buffers_, 1, nullptr), values[r]) << r;
  }
}

TEST_F(DiskColumnTest, PointAccessCostsTwoPageReads) {
  // The paper's §II-A computation: value vector page + dictionary page.
  ColumnDefinition def{"c", DataType::kInt32, 0};
  std::vector<Value> values;
  Rng rng(3);
  for (int i = 0; i < 5000; ++i) {
    values.emplace_back(int32_t(rng.NextBounded(5000)));
  }
  DiskColumn column(def, values, &store_);
  IoStats io;
  column.GetValue(4321, &buffers_, 1, &io);
  EXPECT_EQ(io.page_reads + io.cache_hits, 2u);
}

TEST_F(DiskColumnTest, ScanMatchesNaive) {
  ColumnDefinition def{"c", DataType::kInt32, 0};
  std::vector<Value> values;
  Rng rng(7);
  std::vector<int32_t> raw;
  for (int i = 0; i < 3000; ++i) {
    raw.push_back(int32_t(rng.NextInt(-100, 100)));
    values.emplace_back(raw.back());
  }
  DiskColumn column(def, values, &store_);
  for (int trial = 0; trial < 10; ++trial) {
    int32_t lo = int32_t(rng.NextInt(-120, 120));
    int32_t hi = int32_t(rng.NextInt(-120, 120));
    if (lo > hi) std::swap(lo, hi);
    Value vlo(lo), vhi(hi);
    PositionList got;
    IoStats io;
    column.ScanBetween(&vlo, &vhi, &buffers_, 1, &got, &io);
    PositionList want;
    for (size_t r = 0; r < raw.size(); ++r) {
      if (raw[r] >= lo && raw[r] <= hi) want.push_back(r);
    }
    ASSERT_EQ(got, want) << "[" << lo << "," << hi << "]";
  }
}

TEST_F(DiskColumnTest, UnboundedScan) {
  ColumnDefinition def{"c", DataType::kInt32, 0};
  std::vector<Value> values{Value(int32_t{3}), Value(int32_t{1}),
                            Value(int32_t{2})};
  DiskColumn column(def, values, &store_);
  PositionList all;
  column.ScanBetween(nullptr, nullptr, &buffers_, 1, &all, nullptr);
  EXPECT_EQ(all, (PositionList{0, 1, 2}));
}

TEST_F(DiskColumnTest, StringsSupported) {
  ColumnDefinition def{"s", DataType::kString, 8};
  std::vector<Value> values{Value("pear"), Value("fig"), Value("apple"),
                            Value("fig")};
  DiskColumn column(def, values, &store_);
  EXPECT_EQ(*column.GetValue(2, &buffers_, 1, nullptr),
            Value(std::string("apple")));
  Value lo(std::string("apple")), hi(std::string("fig"));
  PositionList out;
  column.ScanBetween(&lo, &hi, &buffers_, 1, &out, nullptr);
  EXPECT_EQ(out, (PositionList{1, 2, 3}));
}

TEST_F(DiskColumnTest, WideTupleReconstructionMuchWorseThanSscg) {
  // The §II-A motivating claim, measured: reconstructing a 50-attribute
  // tuple from disk-resident dictionary-encoded columns costs ~2 page reads
  // per attribute; the SSCG costs one page total.
  const size_t attrs = 50;
  const size_t rows = 2000;
  Schema schema;
  for (size_t c = 0; c < attrs; ++c) {
    schema.push_back({"c" + std::to_string(c), DataType::kInt32, 0});
  }
  Rng rng(5);
  std::vector<Row> data;
  for (size_t r = 0; r < rows; ++r) {
    Row row;
    for (size_t c = 0; c < attrs; ++c) {
      row.emplace_back(int32_t(rng.NextBounded(2000)));
    }
    data.push_back(std::move(row));
  }
  // Disk-resident column store.
  std::vector<DiskColumn> columns;
  for (size_t c = 0; c < attrs; ++c) {
    std::vector<Value> values;
    for (size_t r = 0; r < rows; ++r) values.push_back(data[r][c]);
    columns.emplace_back(schema[c], values, &store_);
  }
  // SSCG over the same data.
  std::vector<ColumnId> members;
  for (ColumnId c = 0; c < attrs; ++c) members.push_back(c);
  const RowLayout layout(schema, members);
  Sscg sscg(layout, TransposeRows(layout.SlotTypes(), data), &store_);

  IoStats disk_io, sscg_io;
  BufferManager cold1(&store_, 4), cold2(&store_, 4);
  const RowId row = 1234;
  for (size_t c = 0; c < attrs; ++c) {
    columns[c].GetValue(row, &cold1, 1, &disk_io);
  }
  Row tuple = *sscg.ReconstructTuple(row, &cold2, 1, &sscg_io);
  EXPECT_EQ(tuple, data[row]);
  EXPECT_EQ(sscg_io.page_reads, 1u);
  // ~2 reads per attribute (dictionary pages may repeat-hit in the tiny
  // cache, so allow >= 1.5x attrs).
  EXPECT_GE(disk_io.page_reads, attrs * 3 / 2);
  EXPECT_GT(disk_io.device_ns, 20 * sscg_io.device_ns);
}

}  // namespace
}  // namespace hytap
