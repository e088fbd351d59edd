#include "storage/table.h"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>

#include "common/random.h"
#include "query/executor.h"
#include "storage/dictionary_column.h"

namespace hytap {
namespace {

Schema TestSchema() {
  Schema schema;
  schema.push_back({"id", DataType::kInt32, 0});
  schema.push_back({"grp", DataType::kInt32, 0});
  schema.push_back({"amount", DataType::kDouble, 0});
  schema.push_back({"note", DataType::kString, 12});
  return schema;
}

std::vector<Row> TestRows(size_t n) {
  std::vector<Row> rows;
  for (size_t r = 0; r < n; ++r) {
    rows.push_back(Row{Value(int32_t(r)), Value(int32_t(r % 7)),
                       Value(double(r) * 1.5),
                       Value("n" + std::to_string(r % 3))});
  }
  return rows;
}

class TableTest : public ::testing::Test {
 protected:
  TableTest()
      : store_(DeviceKind::kXpoint),
        buffers_(&store_, 16),
        table_("t", TestSchema(), &txns_, &store_, &buffers_) {}

  TransactionManager txns_;
  SecondaryStore store_;
  BufferManager buffers_;
  Table table_;
};

TEST_F(TableTest, BulkLoadAllDram) {
  table_.BulkLoad(TestRows(100));
  EXPECT_EQ(table_.main_row_count(), 100u);
  EXPECT_EQ(table_.row_count(), 100u);
  for (ColumnId c = 0; c < 4; ++c) {
    EXPECT_EQ(table_.location(c), ColumnLocation::kDram);
    EXPECT_GT(table_.ColumnDramBytes(c), 0u);
  }
  EXPECT_EQ(*table_.GetValue(0, 42, 1, nullptr), Value(int32_t{42}));
  EXPECT_EQ(*table_.GetValue(2, 10, 1, nullptr), Value(15.0));
}

TEST_F(TableTest, InsertGoesToDelta) {
  table_.BulkLoad(TestRows(10));
  Transaction txn = txns_.Begin();
  ASSERT_TRUE(table_
                  .Insert(txn, Row{Value(int32_t{100}), Value(int32_t{1}),
                                   Value(0.5), Value("x")})
                  .ok());
  txns_.Commit(&txn);
  EXPECT_EQ(table_.delta_row_count(), 1u);
  EXPECT_EQ(table_.row_count(), 11u);
  EXPECT_EQ(*table_.GetValue(0, 10, 1, nullptr), Value(int32_t{100}));
}

TEST_F(TableTest, InsertArityAndTypeChecked) {
  table_.BulkLoad(TestRows(1));
  Transaction txn = txns_.Begin();
  EXPECT_FALSE(table_.Insert(txn, Row{Value(int32_t{1})}).ok());
  EXPECT_FALSE(table_
                   .Insert(txn, Row{Value(1.0), Value(int32_t{1}),
                                    Value(0.5), Value("x")})
                   .ok());
}

TEST_F(TableTest, MvccVisibility) {
  table_.BulkLoad(TestRows(5));
  Transaction writer = txns_.Begin();
  ASSERT_TRUE(table_
                  .Insert(writer, Row{Value(int32_t{99}), Value(int32_t{0}),
                                      Value(1.0), Value("w")})
                  .ok());
  Transaction other = txns_.Begin();
  EXPECT_TRUE(table_.IsVisible(5, writer));   // own write
  EXPECT_FALSE(table_.IsVisible(5, other));   // uncommitted
  txns_.Commit(&writer);
  EXPECT_FALSE(table_.IsVisible(5, other));   // stale snapshot
  Transaction later = txns_.Begin();
  EXPECT_TRUE(table_.IsVisible(5, later));
}

TEST_F(TableTest, DeleteInvalidates) {
  table_.BulkLoad(TestRows(5));
  Transaction deleter = txns_.Begin();
  ASSERT_TRUE(table_.Delete(deleter, 2).ok());
  txns_.Commit(&deleter);
  Transaction reader = txns_.Begin();
  EXPECT_FALSE(table_.IsVisible(2, reader));
  EXPECT_TRUE(table_.IsVisible(1, reader));
}

TEST_F(TableTest, SetPlacementEvictsToSscg) {
  table_.BulkLoad(TestRows(200));
  uint64_t migrated = 0;
  // Evict columns 2 and 3.
  ASSERT_TRUE(
      table_.SetPlacement({true, true, false, false}, &migrated).ok());
  EXPECT_GT(migrated, 0u);
  EXPECT_EQ(table_.location(0), ColumnLocation::kDram);
  EXPECT_EQ(table_.location(2), ColumnLocation::kSecondary);
  ASSERT_NE(table_.sscg(), nullptr);
  EXPECT_EQ(table_.sscg()->layout().member_count(), 2u);
  // Values still correct from the SSCG.
  EXPECT_EQ(*table_.GetValue(2, 10, 1, nullptr), Value(15.0));
  EXPECT_EQ(*table_.GetValue(3, 4, 1, nullptr), Value("n1"));
  // DRAM footprint shrank.
  EXPECT_EQ(table_.MainDramBytes(),
            table_.ColumnDramBytes(0) + table_.ColumnDramBytes(1));
}

TEST_F(TableTest, PlacementRoundTripRestoresMrc) {
  table_.BulkLoad(TestRows(100));
  ASSERT_TRUE(table_.SetPlacement({true, false, false, true}, nullptr).ok());
  ASSERT_TRUE(table_.SetPlacement({true, true, true, true}, nullptr).ok());
  EXPECT_EQ(table_.sscg(), nullptr);
  for (RowId r = 0; r < 100; r += 17) {
    EXPECT_EQ(*table_.GetValue(1, r, 1, nullptr), Value(int32_t(r % 7)));
    EXPECT_EQ(*table_.GetValue(2, r, 1, nullptr), Value(double(r) * 1.5));
  }
}

TEST_F(TableTest, ReconstructRowAcrossLocations) {
  const auto rows = TestRows(50);
  table_.BulkLoad(rows);
  ASSERT_TRUE(table_.SetPlacement({true, false, false, false}, nullptr).ok());
  IoStats io;
  Row got = *table_.ReconstructRow(33, 1, &io);
  EXPECT_EQ(got, rows[33]);
  // One page read for the three SSCG attributes + DRAM touches for the MRC.
  EXPECT_EQ(io.page_reads + io.cache_hits, 1u);
  EXPECT_GT(io.dram_ns, 0u);
}

TEST_F(TableTest, ReconstructDeltaRow) {
  table_.BulkLoad(TestRows(5));
  Transaction txn = txns_.Begin();
  Row fresh{Value(int32_t{500}), Value(int32_t{5}), Value(9.5), Value("new")};
  ASSERT_TRUE(table_.Insert(txn, fresh).ok());
  txns_.Commit(&txn);
  EXPECT_EQ(*table_.ReconstructRow(5, 1, nullptr), fresh);
}

TEST_F(TableTest, MergeDeltaMovesRowsToMain) {
  table_.BulkLoad(TestRows(10));
  Transaction txn = txns_.Begin();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(table_
                    .Insert(txn, Row{Value(int32_t{100 + i}),
                                     Value(int32_t{1}), Value(1.0),
                                     Value("d")})
                    .ok());
  }
  txns_.Commit(&txn);
  table_.MergeDelta();
  EXPECT_EQ(table_.main_row_count(), 15u);
  EXPECT_EQ(table_.delta_row_count(), 0u);
  EXPECT_EQ(*table_.GetValue(0, 12, 1, nullptr), Value(int32_t{102}));
}

TEST_F(TableTest, MergeDropsDeletedAndUncommitted) {
  table_.BulkLoad(TestRows(10));
  Transaction deleter = txns_.Begin();
  ASSERT_TRUE(table_.Delete(deleter, 3).ok());
  txns_.Commit(&deleter);
  Transaction in_flight = txns_.Begin();
  ASSERT_TRUE(table_
                  .Insert(in_flight, Row{Value(int32_t{999}),
                                         Value(int32_t{0}), Value(0.0),
                                         Value("u")})
                  .ok());
  // Aborted rows must not survive the merge either.
  txns_.Abort(&in_flight);
  table_.MergeDelta();
  EXPECT_EQ(table_.main_row_count(), 9u);  // row 3 removed, insert dropped
  Transaction reader = txns_.Begin();
  for (RowId r = 0; r < table_.main_row_count(); ++r) {
    EXPECT_TRUE(table_.IsVisible(r, reader));
    EXPECT_NE(*table_.GetValue(0, r, 1, nullptr), Value(int32_t{3}));
    EXPECT_NE(*table_.GetValue(0, r, 1, nullptr), Value(int32_t{999}));
  }
}

TEST_F(TableTest, MergePreservesPlacement) {
  table_.BulkLoad(TestRows(20));
  ASSERT_TRUE(table_.SetPlacement({true, true, false, false}, nullptr).ok());
  Transaction txn = txns_.Begin();
  ASSERT_TRUE(table_
                  .Insert(txn, Row{Value(int32_t{777}), Value(int32_t{2}),
                                   Value(2.5), Value("m")})
                  .ok());
  txns_.Commit(&txn);
  table_.MergeDelta();
  EXPECT_EQ(table_.location(2), ColumnLocation::kSecondary);
  EXPECT_EQ(table_.main_row_count(), 21u);
  EXPECT_EQ(*table_.GetValue(2, 20, 1, nullptr), Value(2.5));
  EXPECT_EQ(*table_.GetValue(3, 20, 1, nullptr), Value("m"));
}

TEST_F(TableTest, SelectivityEstimateIsInverseDistinct) {
  table_.BulkLoad(TestRows(100));
  // Column 1 has 7 distinct values.
  EXPECT_NEAR(table_.SelectivityEstimate(1), 1.0 / 7.0, 1e-12);
  // Column 0 is unique.
  EXPECT_NEAR(table_.SelectivityEstimate(0), 1.0 / 100.0, 1e-12);
}

TEST_F(TableTest, PlacementRequiresStore) {
  TransactionManager txns;
  Table untethered("u", TestSchema(), &txns);  // no store/buffers
  untethered.BulkLoad(TestRows(5));
  EXPECT_FALSE(untethered.SetPlacement({true, true, true, false}).ok());
  EXPECT_TRUE(untethered.SetPlacement({true, true, true, true}).ok());
}

// NaN: a 2-column (int32, double) table with 100 loaded rows.
class TableNanTest : public ::testing::Test {
 protected:
  TableNanTest()
      : store_(DeviceKind::kXpoint, 42, FaultConfig()),
        buffers_(&store_, 16),
        table_("n", Schema{{"id", DataType::kInt32, 0},
                           {"amount", DataType::kDouble, 0}},
               &txns_, &store_, &buffers_) {
    std::vector<Row> rows;
    for (int32_t r = 0; r < 100; ++r) {
      rows.push_back(Row{Value(r), Value(double(r % 10))});
    }
    table_.BulkLoad(rows);
  }

  /// A quiet NaN with a payload, so bit-exact storage shows.
  static double PayloadNan(uint64_t payload) {
    const uint64_t bits = 0x7ff8000000000000ull | payload;
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  void InsertNan(uint64_t payload) {
    Transaction txn = txns_.Begin();
    ASSERT_TRUE(table_
                    .Insert(txn, Row{Value(int32_t(1000 + payload)),
                                     Value(PayloadNan(payload))})
                    .ok());
    txns_.Commit(&txn);
  }

  static bool IsNanWithPayload(const Value& v, uint64_t payload) {
    const double d = v.AsDouble();
    const double want = PayloadNan(payload);
    return std::memcmp(&d, &want, sizeof(d)) == 0;
  }

  TransactionManager txns_;
  SecondaryStore store_;
  BufferManager buffers_;
  Table table_;
};

TEST_F(TableNanTest, MergeIntoMrcIsRejectedAndChangesNothing) {
  InsertNan(1);
  const AbstractColumn* mrc = table_.mrc(1);
  const size_t bytes = table_.ColumnDramBytes(1);
  const Status status = table_.MergeDelta();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("amount"), std::string::npos)
      << status.message();
  EXPECT_NE(status.message().find("NaN"), std::string::npos);
  EXPECT_EQ(table_.main_row_count(), 100u);
  EXPECT_EQ(table_.delta_row_count(), 1u);
  EXPECT_EQ(table_.mrc(1), mrc);
  EXPECT_EQ(table_.ColumnDramBytes(1), bytes);
  EXPECT_TRUE(IsNanWithPayload(*table_.GetValue(1, 100, 1, nullptr), 1));
  EXPECT_EQ(*table_.GetValue(1, 37, 1, nullptr), Value(7.0));
}

TEST_F(TableNanTest, NanInSscgMergesBitExact) {
  ASSERT_TRUE(table_.SetPlacement({true, false}).ok());
  InsertNan(1);
  InsertNan(2);
  ASSERT_TRUE(table_.MergeDelta().ok());
  EXPECT_EQ(table_.main_row_count(), 102u);
  EXPECT_EQ(table_.delta_row_count(), 0u);
  EXPECT_TRUE(IsNanWithPayload(*table_.GetValue(1, 100, 1, nullptr), 1));
  EXPECT_TRUE(IsNanWithPayload(*table_.GetValue(1, 101, 1, nullptr), 2));
  // Footprint: the two NaNs are one dictionary entry, after the ten others.
  std::vector<double> eleven;
  for (int i = 0; i < 102; ++i) eleven.push_back(double(i % 11));
  EXPECT_EQ(table_.ColumnDramBytes(1),
            DictionaryColumn<double>::MemoryUsageFor(eleven));
  // Every range matches a NaN in the SSCG, as in the delta.
  QueryExecutor executor(&table_);
  Query query;
  query.predicates.push_back(Predicate::Between(1, Value(50.0), Value(60.0)));
  const QueryResult result =
      executor.Execute(txns_.Begin(), query, 1);
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.positions, (PositionList{100, 101}));
}

TEST_F(TableNanTest, PlacingNanIntoMrcIsRejectedAndChangesNothing) {
  ASSERT_TRUE(table_.SetPlacement({true, false}).ok());
  InsertNan(3);
  ASSERT_TRUE(table_.MergeDelta().ok());
  const Sscg* sscg = table_.sscg();
  const std::vector<PageId> pages = sscg->page_ids();
  const size_t bytes = table_.ColumnDramBytes(1);
  uint64_t migrated = 0;
  const Status status = table_.SetPlacement({true, true}, &migrated);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("amount"), std::string::npos);
  EXPECT_EQ(migrated, 0u);
  EXPECT_EQ(table_.location(1), ColumnLocation::kSecondary);
  EXPECT_EQ(table_.sscg(), sscg);
  EXPECT_EQ(table_.sscg()->page_ids(), pages);
  EXPECT_EQ(table_.ColumnDramBytes(1), bytes);
  EXPECT_TRUE(IsNanWithPayload(*table_.GetValue(1, 100, 1, nullptr), 3));
}

TEST_F(TableNanTest, CorruptMergeWithNanInSscgChangesNothing) {
  // The rewritten group fails verification and the NaN column has no MRC
  // to fall back to: the merge is refused as a whole.
  ASSERT_TRUE(table_.SetPlacement({true, false}).ok());
  InsertNan(4);
  const Sscg* sscg = table_.sscg();
  FaultConfig corrupt;
  corrupt.seed = 5;
  corrupt.write_corruption_rate = 1.0;
  store_.ConfigureFaults(corrupt);
  const Status status = table_.MergeDelta();
  store_.ConfigureFaults(FaultConfig());
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_EQ(table_.main_row_count(), 100u);
  EXPECT_EQ(table_.delta_row_count(), 1u);
  EXPECT_EQ(table_.sscg(), sscg);
  EXPECT_EQ(table_.location(1), ColumnLocation::kSecondary);
  EXPECT_TRUE(IsNanWithPayload(*table_.GetValue(1, 100, 1, nullptr), 4));
  EXPECT_EQ(*table_.GetValue(1, 42, 1, nullptr), Value(2.0));
}

TEST(TableNanDeathTest, BulkLoadNamesTheNanColumn) {
  TransactionManager txns;
  Table table("n", Schema{{"id", DataType::kInt32, 0},
                          {"amount", DataType::kDouble, 0}},
              &txns);
  std::vector<Row> rows{
      Row{Value(int32_t{1}), Value(1.0)},
      Row{Value(int32_t{2}), Value(std::numeric_limits<double>::quiet_NaN())}};
  EXPECT_DEATH(table.BulkLoad(rows), "column amount holds a NaN");
}

}  // namespace
}  // namespace hytap
