// Main-partition rebuilds (BulkLoad, SetPlacement, MergeDelta) against an
// independent model of the main rows: dictionaries, codes, SSCG page bytes,
// footprints, migration volume and query results after every step.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>

#include "query/executor.h"
#include "storage/dictionary_column.h"
#include "storage/table.h"

namespace hytap {
namespace {

Schema RebuildSchema() {
  Schema schema;
  schema.push_back({"id", DataType::kInt32, 0});
  schema.push_back({"qty", DataType::kInt64, 0});
  schema.push_back({"price", DataType::kFloat, 0});
  schema.push_back({"amount", DataType::kDouble, 0});
  schema.push_back({"note", DataType::kString, 20});
  return schema;
}

/// Row `i`: duplicates in every column but the id, and strings on both
/// sides of the 15-character inline-buffer limit. No -0.0: an MRC keeps one
/// representative of -0.0 and +0.0 (pinned by SignedZeroKeepsFirstOccurrence
/// below), which would make the stored bytes differ from the model's.
Row MakeRow(int32_t i) {
  const float price = float(i % 97) / 4.0f;
  const double amount = double((i * 7) % 501) - 250.0;
  const std::string note = i % 3 == 0
                               ? "n" + std::to_string(i % 17)
                               : "longer-than-15-" + std::to_string(i % 29);
  return Row{Value(i), Value(int64_t(i % 41) * 1000), Value(price),
             Value(amount), Value(note)};
}

/// Same type and, for floating point, the same bits (-0.0, NaN payloads).
bool SameBits(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  if (a.type() == DataType::kDouble) {
    const double x = a.AsDouble(), y = b.AsDouble();
    return std::memcmp(&x, &y, sizeof(x)) == 0;
  }
  if (a.type() == DataType::kFloat) {
    const float x = a.AsFloat(), y = b.AsFloat();
    return std::memcmp(&x, &y, sizeof(x)) == 0;
  }
  return a == b;
}

template <typename T>
std::vector<T> Typed(const std::vector<Row>& rows, ColumnId c) {
  std::vector<T> values;
  for (const Row& row : rows) values.push_back(row[c].As<T>());
  return values;
}

/// The MRC holds the sorted unique values, and row r's code is the index of
/// row r's value in them.
template <typename T>
void CheckMrc(const AbstractColumn* column, const std::vector<T>& expected,
              const std::string& what) {
  const auto* mrc = dynamic_cast<const DictionaryColumn<T>*>(column);
  ASSERT_NE(mrc, nullptr) << what;
  std::vector<T> unique = expected;
  std::sort(unique.begin(), unique.end());
  unique.erase(std::unique(unique.begin(), unique.end()), unique.end());
  ASSERT_EQ(mrc->dictionary().size(), unique.size()) << what;
  for (size_t i = 0; i < unique.size(); ++i) {
    EXPECT_TRUE(mrc->dictionary().ValueFor(ValueId(i)) == unique[i]) << what;
  }
  ASSERT_EQ(mrc->size(), expected.size()) << what;
  for (size_t r = 0; r < expected.size(); ++r) {
    const size_t index = size_t(
        std::lower_bound(unique.begin(), unique.end(), expected[r]) -
        unique.begin());
    ASSERT_EQ(mrc->codes().Get(r), index) << what << " row " << r;
    ASSERT_TRUE(mrc->Get(RowId(r)) == expected[r]) << what << " row " << r;
  }
}

template <typename T>
size_t Footprint(const std::vector<Row>& rows, ColumnId c) {
  return DictionaryColumn<T>::Build(Typed<T>(rows, c))->MemoryUsage();
}

std::vector<Query> Queries() {
  std::vector<Query> queries;
  Query all;
  all.projections = {0, 1, 2, 3, 4};
  all.aggregates = {Aggregate::Count(), Aggregate::Sum(3), Aggregate::Min(2),
                    Aggregate::Max(4), Aggregate::Sum(1)};
  queries.push_back(all);
  Query range;
  range.predicates.push_back(
      Predicate::Between(3, Value(-100.0), Value(0.0)));
  range.predicates.push_back(
      Predicate::Between(1, Value(int64_t{5000}), Value(int64_t{30000})));
  range.projections = {4, 2, 0};
  range.aggregates = {Aggregate::Min(3), Aggregate::Max(2)};
  queries.push_back(range);
  Query text;
  text.predicates.push_back(Predicate::Equals(4, Value("longer-than-15-7")));
  text.projections = {0, 3};
  queries.push_back(text);
  return queries;
}

using Results = std::vector<QueryResult>;

class RebuildTest : public ::testing::Test {
 protected:
  RebuildTest()
      : store_(DeviceKind::kCssd, 7, FaultConfig()),
        buffers_(&store_, 64),
        table_("r", RebuildSchema(), &txns_, &store_, &buffers_) {}

  void Load(int32_t n) {
    for (int32_t i = 0; i < n; ++i) main_.push_back(MakeRow(i));
    table_.BulkLoad(main_);
    next_id_ = n;
  }

  /// Checks every main-partition structure against `main_`.
  void CheckMain(const std::string& what) {
    ASSERT_EQ(table_.main_row_count(), main_.size()) << what;
    for (ColumnId c = 0; c < table_.column_count(); ++c) {
      const std::string col = what + " column " + std::to_string(c);
      if (table_.location(c) == ColumnLocation::kSecondary) {
        EXPECT_EQ(table_.mrc(c), nullptr) << col;
        continue;
      }
      EXPECT_EQ(table_.ColumnDramBytes(c), table_.mrc(c)->MemoryUsage())
          << col;
      switch (table_.schema()[c].type) {
        case DataType::kInt32:
          CheckMrc(table_.mrc(c), Typed<int32_t>(main_, c), col);
          break;
        case DataType::kInt64:
          CheckMrc(table_.mrc(c), Typed<int64_t>(main_, c), col);
          break;
        case DataType::kFloat:
          CheckMrc(table_.mrc(c), Typed<float>(main_, c), col);
          break;
        case DataType::kDouble:
          CheckMrc(table_.mrc(c), Typed<double>(main_, c), col);
          break;
        case DataType::kString:
          CheckMrc(table_.mrc(c), Typed<std::string>(main_, c), col);
          break;
      }
    }
    const Sscg* sscg = table_.sscg();
    bool any_secondary = false;
    size_t dram_bytes = 0;
    for (ColumnId c = 0; c < table_.column_count(); ++c) {
      const bool dram = table_.location(c) == ColumnLocation::kDram;
      any_secondary |= !dram;
      if (dram) dram_bytes += table_.ColumnDramBytes(c);
    }
    EXPECT_EQ(table_.MainDramBytes(), dram_bytes) << what;
    ASSERT_EQ(sscg != nullptr, any_secondary) << what;
    if (sscg == nullptr) return;
    // Every page holds exactly RowLayout::SerializeRow of its rows.
    const RowLayout& layout = sscg->layout();
    ASSERT_EQ(sscg->row_count(), main_.size()) << what;
    ASSERT_EQ(sscg->page_count(), layout.PageCountFor(main_.size())) << what;
    for (size_t p = 0; p < sscg->page_count(); ++p) {
      SecondaryStore::Page page;
      page.fill(0);
      const size_t first = p * layout.rows_per_page();
      const size_t last =
          std::min(main_.size(), first + layout.rows_per_page());
      for (size_t r = first; r < last; ++r) {
        Row members;
        for (ColumnId c : layout.member_columns()) {
          members.push_back(main_[r][c]);
        }
        layout.SerializeRow(members, page.data() + layout.OffsetInPage(r));
      }
      EXPECT_TRUE(page == store_.RawPage(sscg->page_ids()[p]))
          << what << " page " << p;
    }
  }

  /// Every column's footprint is the MemoryUsage of an MRC built from the
  /// model's values.
  void CheckFootprints(const std::string& what) {
    const size_t expected[] = {
        Footprint<int32_t>(main_, 0), Footprint<int64_t>(main_, 1),
        Footprint<float>(main_, 2), Footprint<double>(main_, 3),
        Footprint<std::string>(main_, 4)};
    for (ColumnId c = 0; c < table_.column_count(); ++c) {
      EXPECT_EQ(table_.ColumnDramBytes(c), expected[c])
          << what << " column " << c;
    }
  }

  Results Run() {
    Results out;
    QueryExecutor executor(&table_);
    Transaction reader = txns_.Begin();
    for (const Query& query : Queries()) {
      out.push_back(executor.Execute(reader, query, 2));
      EXPECT_TRUE(out.back().status.ok());
    }
    txns_.Abort(&reader);
    return out;
  }

  static void ExpectSameResults(const Results& a, const Results& b,
                                bool same_positions, const std::string& what) {
    ASSERT_EQ(a.size(), b.size());
    for (size_t q = 0; q < a.size(); ++q) {
      const QueryResult& x = a[q];
      const QueryResult& y = b[q];
      const std::string at = what + " query " + std::to_string(q);
      if (same_positions) {
        EXPECT_EQ(x.positions, y.positions) << at;
      }
      ASSERT_EQ(x.rows.size(), y.rows.size()) << at;
      for (size_t i = 0; i < x.rows.size(); ++i) {
        ASSERT_EQ(x.rows[i].size(), y.rows[i].size()) << at;
        for (size_t p = 0; p < x.rows[i].size(); ++p) {
          EXPECT_TRUE(SameBits(x.rows[i][p], y.rows[i][p]))
              << at << " row " << i << " cell " << p;
        }
      }
      ASSERT_EQ(x.aggregate_values.size(), y.aggregate_values.size()) << at;
      for (size_t i = 0; i < x.aggregate_values.size(); ++i) {
        EXPECT_TRUE(SameBits(x.aggregate_values[i], y.aggregate_values[i]))
            << at << " aggregate " << i;
      }
    }
  }

  /// SetPlacement must keep the data, every footprint, the MRC object of
  /// every column staying in DRAM, and every query result; it migrates the
  /// footprints of the flipped columns.
  void Place(const std::vector<bool>& in_dram, const std::string& what) {
    const Results before = Run();
    std::vector<size_t> bytes;
    std::vector<const AbstractColumn*> mrcs;
    uint64_t flipped = 0;
    for (ColumnId c = 0; c < table_.column_count(); ++c) {
      bytes.push_back(table_.ColumnDramBytes(c));
      mrcs.push_back(table_.mrc(c));
      const bool dram = table_.location(c) == ColumnLocation::kDram;
      if (dram != in_dram[c]) flipped += bytes[c];
    }
    uint64_t migrated = 0;
    ASSERT_TRUE(table_.SetPlacement(in_dram, &migrated).ok()) << what;
    EXPECT_EQ(migrated, flipped) << what;
    for (ColumnId c = 0; c < table_.column_count(); ++c) {
      EXPECT_EQ(table_.ColumnDramBytes(c), bytes[c]) << what << " " << c;
      EXPECT_EQ(table_.location(c) == ColumnLocation::kDram, in_dram[c]);
      if (mrcs[c] != nullptr && in_dram[c]) {
        EXPECT_EQ(table_.mrc(c), mrcs[c]) << what << " kept MRC " << c;
      }
    }
    CheckMain(what);
    ExpectSameResults(before, Run(), /*same_positions=*/true, what);
  }

  /// Commits `n` fresh rows into the delta (and the model's pending list).
  void InsertCommitted(int n) {
    Transaction txn = txns_.Begin();
    Insert(&txn, n);
    txns_.Commit(&txn);
  }

  void Insert(Transaction* txn, int n) {
    for (int i = 0; i < n; ++i) {
      const Row row = MakeRow(next_id_++);
      ASSERT_TRUE(table_.Insert(*txn, row).ok());
      delta_.push_back(row);
    }
  }

  /// Deletes main rows `rows` (committed); the model drops them at merge.
  void DeleteMain(const std::vector<RowId>& rows) {
    Transaction txn = txns_.Begin();
    for (RowId r : rows) {
      ASSERT_TRUE(table_.Delete(txn, r).ok());
      deleted_.push_back(r);
    }
    txns_.Commit(&txn);
  }

  /// Merges; the model keeps main survivors, then the delta rows.
  void Merge(const std::string& what) {
    const Results before = Run();
    const std::vector<bool> placement = table_.placement();
    ASSERT_TRUE(table_.MergeDelta().ok()) << what;
    std::vector<Row> merged;
    for (RowId r = 0; r < main_.size(); ++r) {
      if (std::find(deleted_.begin(), deleted_.end(), r) == deleted_.end()) {
        merged.push_back(main_[r]);
      }
    }
    merged.insert(merged.end(), delta_.begin(), delta_.end());
    main_ = std::move(merged);
    delta_.clear();
    deleted_.clear();
    EXPECT_EQ(table_.placement(), placement) << what;
    EXPECT_EQ(table_.delta_row_count(), 0u) << what;
    CheckMain(what);
    CheckFootprints(what);
    ExpectSameResults(before, Run(), /*same_positions=*/false, what);
  }

  TransactionManager txns_;
  SecondaryStore store_;
  BufferManager buffers_;
  Table table_;
  std::vector<Row> main_;
  std::vector<Row> delta_;
  std::vector<RowId> deleted_;
  int32_t next_id_ = 0;
};

TEST_F(RebuildTest, PlacementsAndMergesMatchTheModel) {
  Load(3000);
  CheckMain("load");
  CheckFootprints("load");

  DeleteMain({0, 17, 1500, 2999});
  Transaction open = txns_.Begin();
  Insert(&open, 40);  // uncommitted across the placement change
  Place({true, false, true, false, false}, "mixed");
  txns_.Commit(&open);
  Merge("merge into mixed");

  InsertCommitted(250);
  DeleteMain({3, 4, 5, 800});
  Transaction late = txns_.Begin();
  Insert(&late, 30);
  Place({false, true, false, true, false}, "second mix");
  Place({false, true, false, true, false}, "same mix again");
  txns_.Commit(&late);
  Merge("merge into second mix");

  InsertCommitted(100);
  Place({true, true, true, true, true}, "all DRAM");
  EXPECT_EQ(table_.sscg(), nullptr);
  Merge("merge all DRAM");
}

TEST_F(RebuildTest, CorruptEvictionFallsBackToAllDram) {
  Load(2000);
  Place({true, false, true, true, false}, "mixed");
  const Results before = Run();
  std::vector<size_t> bytes;
  std::vector<const AbstractColumn*> mrcs;
  for (ColumnId c = 0; c < table_.column_count(); ++c) {
    bytes.push_back(table_.ColumnDramBytes(c));
    mrcs.push_back(table_.mrc(c));
  }
  FaultConfig corrupt;
  corrupt.seed = 9;
  corrupt.write_corruption_rate = 1.0;
  store_.ConfigureFaults(corrupt);
  uint64_t migrated = 0;
  const Status status =
      table_.SetPlacement({false, true, true, false, false}, &migrated);
  store_.ConfigureFaults(FaultConfig());
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  for (ColumnId c = 0; c < table_.column_count(); ++c) {
    EXPECT_EQ(table_.location(c), ColumnLocation::kDram) << c;
    EXPECT_EQ(table_.ColumnDramBytes(c), bytes[c]) << c;
    if (mrcs[c] != nullptr) {
      EXPECT_EQ(table_.mrc(c), mrcs[c]) << c;
    }
  }
  CheckMain("fallback");
  ExpectSameResults(before, Run(), /*same_positions=*/true, "fallback");
}

TEST_F(RebuildTest, CorruptMergeFallsBackToAllDram) {
  Load(2000);
  Place({true, false, true, false, false}, "mixed");
  InsertCommitted(120);
  DeleteMain({10, 11});
  FaultConfig corrupt;
  corrupt.seed = 9;
  corrupt.write_corruption_rate = 1.0;
  store_.ConfigureFaults(corrupt);
  const Status status = table_.MergeDelta();
  store_.ConfigureFaults(FaultConfig());
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  std::vector<Row> merged;
  for (RowId r = 0; r < main_.size(); ++r) {
    if (r != 10 && r != 11) merged.push_back(main_[r]);
  }
  merged.insert(merged.end(), delta_.begin(), delta_.end());
  main_ = std::move(merged);
  EXPECT_EQ(table_.delta_row_count(), 0u);
  for (ColumnId c = 0; c < table_.column_count(); ++c) {
    EXPECT_EQ(table_.location(c), ColumnLocation::kDram) << c;
  }
  CheckMain("merge fallback");
  CheckFootprints("merge fallback");
}

// Footprint-only sizing is exact: it equals the built column's
// MemoryUsage() for every type, duplicates and long strings included.
template <typename T>
void ExpectFootprintExact(const std::vector<T>& values) {
  EXPECT_EQ(DictionaryColumn<T>::MemoryUsageFor(values),
            DictionaryColumn<T>::Build(values)->MemoryUsage());
}

TEST(DictionaryFootprintTest, EqualsBuiltMemoryUsageForEveryType) {
  std::vector<Row> rows;
  for (int32_t i = 0; i < 5000; ++i) rows.push_back(MakeRow(i * 7 % 4001));
  ExpectFootprintExact(Typed<int32_t>(rows, 0));
  ExpectFootprintExact(Typed<int64_t>(rows, 1));
  ExpectFootprintExact(Typed<float>(rows, 2));
  ExpectFootprintExact(Typed<double>(rows, 3));
  ExpectFootprintExact(Typed<std::string>(rows, 4));
  ExpectFootprintExact(std::vector<std::string>{
      "a", std::string(40, 'x'), "a", std::string(16, 'y'),
      std::string(40, 'x'), std::string(15, 'z'), ""});
  ExpectFootprintExact(std::vector<int32_t>{});
  ExpectFootprintExact(std::vector<int64_t>{
      std::numeric_limits<int64_t>::min(), -1, 0,
      std::numeric_limits<int64_t>::max(), -1});
}

// The string sort key holds the first 16 bytes: longer strings that tie on
// them, shared prefixes of different lengths and NUL bytes must still sort
// as std::string does.
TEST(DictionaryFootprintTest, StringOrderMatchesStdString) {
  const std::string base(16, 'k');
  std::vector<std::string> values{base + "b", base,       base + "a",
                                  base + "b", "k",        std::string("k\0", 2),
                                  base + "ab", "",        base + "a",
                                  std::string(3, '\0'),  "kk", base + "b"};
  std::vector<std::string> unique = values;
  std::sort(unique.begin(), unique.end());
  unique.erase(std::unique(unique.begin(), unique.end()), unique.end());
  const auto column = DictionaryColumn<std::string>::Build(values);
  ASSERT_EQ(column->dictionary().size(), unique.size());
  for (size_t i = 0; i < unique.size(); ++i) {
    EXPECT_EQ(column->dictionary().ValueFor(ValueId(i)), unique[i]) << i;
  }
  for (size_t r = 0; r < values.size(); ++r) {
    EXPECT_EQ(column->Get(RowId(r)), values[r]) << r;
  }
  ExpectFootprintExact(values);
}

TEST(DictionaryFootprintTest, NanCountsAsOneEntryAfterInfinity) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> with_nan{1.0, nan, inf, -nan, 1.0, nan};
  const std::vector<double> three{1.0, 2.0, inf, 2.0, 1.0, 2.0};
  EXPECT_EQ(DictionaryColumn<double>::MemoryUsageFor(with_nan),
            DictionaryColumn<double>::MemoryUsageFor(three));
  const auto dict = OrderPreservingDictionary<double>::Build(with_nan);
  ASSERT_EQ(dict.size(), 3u);
  EXPECT_EQ(dict.ValueFor(0), 1.0);
  EXPECT_EQ(dict.ValueFor(1), inf);
  EXPECT_TRUE(std::isnan(dict.ValueFor(2)));
}

// -0.0 and +0.0 are one dictionary value; the entry is the first occurrence
// in row order, and every row of either sign decodes to it.
TEST(DictionaryFootprintTest, SignedZeroKeepsFirstOccurrence) {
  for (const bool negative_first : {true, false}) {
    const double first = negative_first ? -0.0 : 0.0;
    const double second = negative_first ? 0.0 : -0.0;
    const auto column =
        DictionaryColumn<double>::Build({2.0, first, -1.0, second, first});
    ASSERT_EQ(column->dictionary().size(), 3u);
    EXPECT_EQ(std::signbit(column->dictionary().ValueFor(1)), negative_first);
    for (RowId r : {RowId{1}, RowId{3}, RowId{4}}) {
      EXPECT_EQ(std::signbit(column->Get(r)), negative_first) << r;
    }
    const auto floats =
        DictionaryColumn<float>::Build({float(second), float(first)});
    ASSERT_EQ(floats->dictionary().size(), 1u);
    EXPECT_EQ(std::signbit(floats->Get(0)), !negative_first);
  }
}

}  // namespace
}  // namespace hytap
