#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "common/metrics.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "query/executor.h"
#include "query/scan.h"
#include "storage/table.h"

namespace hytap {
namespace {

/// Proves that real intra-query parallelism is invisible to the engine's
/// semantics: for any thread count, query results are bit-identical and the
/// simulated IoStats follow the same deterministic accounting order as the
/// serial executor. (device_ns/dram_ns depend on the *requested* thread
/// count through the modeled queue depth — that is cost-model behaviour,
/// not an execution race — so cross-thread-count runs compare page_reads
/// and cache_hits, while same-thread-count runs with the worker pool capped
/// to 1 must match every IoStats field bit for bit.)

constexpr size_t kMainRows = 4000;
constexpr size_t kDeltaRows = 120;

Schema TestSchema() {
  Schema schema;
  schema.push_back({"id", DataType::kInt32, 0});
  schema.push_back({"grp", DataType::kInt32, 0});
  schema.push_back({"amount", DataType::kDouble, 0});
  schema.push_back({"qty", DataType::kInt64, 0});
  return schema;
}

/// One self-contained engine instance, reproducibly seeded.
struct Instance {
  TransactionManager txns;
  SecondaryStore store;
  BufferManager buffers;
  Table table;

  explicit Instance(FaultConfig faults = FaultConfig())
      : store(DeviceKind::kCssd, /*timing_seed=*/7),
        buffers(&store, /*frame_count=*/32),
        table("t", TestSchema(), &txns, &store, &buffers) {
    Rng rng(1234);
    std::vector<Row> rows;
    rows.reserve(kMainRows);
    for (size_t r = 0; r < kMainRows; ++r) {
      rows.push_back(Row{Value(int32_t(r)),
                         Value(int32_t(rng.NextInt(0, 50))),
                         Value(rng.NextDouble(0.0, 1000.0)),
                         Value(int64_t(rng.NextInt(1, 10000)))});
    }
    table.BulkLoad(rows);
    // Tier half of the columns: grp stays in DRAM, amount + qty go to the
    // SSCG so scans, probes, and materialization cross both locations.
    EXPECT_TRUE(table.SetPlacement({true, true, false, false}).ok());
    // Arm fault injection (if any) only after the clean load + placement so
    // the instance state at query time is identical across runs.
    if (faults.AnyFaults()) store.ConfigureFaults(faults);
    // A delta partition on top.
    Transaction txn = txns.Begin();
    for (size_t d = 0; d < kDeltaRows; ++d) {
      EXPECT_TRUE(table
                      .Insert(txn, Row{Value(int32_t(kMainRows + d)),
                                       Value(int32_t(rng.NextInt(0, 50))),
                                       Value(rng.NextDouble(0.0, 1000.0)),
                                       Value(int64_t(rng.NextInt(1, 10000)))})
                      .ok());
    }
    txns.Commit(&txn);
  }
};

std::vector<Query> RandomQueries(size_t count) {
  Rng rng(99);
  std::vector<Query> queries;
  for (size_t q = 0; q < count; ++q) {
    Query query;
    // 1-2 predicates over the DRAM and/or tiered columns.
    const int preds = 1 + int(rng.NextBounded(2));
    for (int p = 0; p < preds; ++p) {
      const ColumnId col = ColumnId(1 + rng.NextBounded(3));
      if (col == 1) {
        query.predicates.push_back(
            Predicate::Equals(1, Value(int32_t(rng.NextInt(0, 50)))));
      } else if (col == 2) {
        const double lo = rng.NextDouble(0.0, 900.0);
        query.predicates.push_back(
            Predicate::Between(2, Value(lo), Value(lo + 150.0)));
      } else {
        const int64_t lo = rng.NextInt(0, 8000);
        query.predicates.push_back(
            Predicate::Between(3, Value(lo), Value(lo + 2500)));
      }
    }
    // Mixed projections + aggregates so Materialize runs both paths.
    query.projections = {0, 2};
    query.aggregates = {Aggregate::Count(), Aggregate::Sum(2),
                        Aggregate::Min(3), Aggregate::Max(2)};
    queries.push_back(std::move(query));
  }
  return queries;
}

std::vector<QueryResult> RunAll(Instance& instance,
                                const std::vector<Query>& queries,
                                uint32_t threads) {
  QueryExecutor executor(&instance.table);
  Transaction txn = instance.txns.Begin();
  std::vector<QueryResult> results;
  for (const Query& query : queries) {
    results.push_back(executor.Execute(txn, query, threads));
  }
  instance.txns.Abort(&txn);
  return results;
}

void ExpectSameResults(const QueryResult& a, const QueryResult& b,
                       size_t q, bool expect_identical_ns) {
  EXPECT_EQ(a.positions, b.positions) << "query " << q;
  EXPECT_EQ(a.rows, b.rows) << "query " << q;
  ASSERT_EQ(a.aggregate_values.size(), b.aggregate_values.size());
  for (size_t i = 0; i < a.aggregate_values.size(); ++i) {
    EXPECT_TRUE(a.aggregate_values[i] == b.aggregate_values[i])
        << "query " << q << " aggregate " << i;
  }
  EXPECT_EQ(a.candidate_trace, b.candidate_trace) << "query " << q;
  EXPECT_EQ(a.io.page_reads, b.io.page_reads) << "query " << q;
  EXPECT_EQ(a.io.cache_hits, b.io.cache_hits) << "query " << q;
  EXPECT_EQ(a.io.retries, b.io.retries) << "query " << q;
  EXPECT_EQ(a.io.morsels_pruned, b.io.morsels_pruned) << "query " << q;
  EXPECT_EQ(a.io.pages_pruned, b.io.pages_pruned) << "query " << q;
  EXPECT_EQ(a.io.checksum_failures, b.io.checksum_failures) << "query " << q;
  EXPECT_EQ(a.io.quarantined_pages, b.io.quarantined_pages) << "query " << q;
  if (expect_identical_ns) {
    EXPECT_EQ(a.io.device_ns, b.io.device_ns) << "query " << q;
    EXPECT_EQ(a.io.dram_ns, b.io.dram_ns) << "query " << q;
  }
}

void ExpectSameFaultStats(const FaultStats& a, const FaultStats& b) {
  EXPECT_EQ(a.transient_errors, b.transient_errors);
  EXPECT_EQ(a.corrupted_reads, b.corrupted_reads);
  EXPECT_EQ(a.corrupted_writes, b.corrupted_writes);
  EXPECT_EQ(a.dead_pages, b.dead_pages);
  EXPECT_EQ(a.latency_spikes, b.latency_spikes);
  EXPECT_EQ(a.checksum_failures, b.checksum_failures);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.failed_reads, b.failed_reads);
  EXPECT_EQ(a.fast_fail_reads, b.fast_fail_reads);
  EXPECT_EQ(a.quarantined_pages, b.quarantined_pages);
}

TEST(ParallelEquivalenceTest, ResultsIdenticalAcrossThreadCounts) {
  const std::vector<Query> queries = RandomQueries(12);
  // Each thread count gets a freshly-built, identically-seeded instance so
  // buffer-cache state and device-jitter draws start from the same point.
  Instance baseline;
  const std::vector<QueryResult> serial = RunAll(baseline, queries, 1);
  for (uint32_t threads : {2u, 4u, 8u}) {
    Instance instance;
    const std::vector<QueryResult> parallel =
        RunAll(instance, queries, threads);
    ASSERT_EQ(parallel.size(), serial.size());
    for (size_t q = 0; q < serial.size(); ++q) {
      // ns figures legitimately differ across thread counts (queue-depth
      // dependent cost model); everything else must match bit for bit.
      ExpectSameResults(serial[q], parallel[q], q,
                        /*expect_identical_ns=*/false);
    }
  }
}

TEST(ParallelEquivalenceTest, SimulatedIoBitIdenticalToForcedSerial) {
  const std::vector<Query> queries = RandomQueries(12);
  const uint32_t threads = 4;

  Instance forced_serial_instance;
  ThreadPool::Global().set_max_workers(1);  // same code path, zero overlap
  const std::vector<QueryResult> forced_serial =
      RunAll(forced_serial_instance, queries, threads);
  ThreadPool::Global().set_max_workers(SIZE_MAX);

  Instance parallel_instance;
  const std::vector<QueryResult> parallel =
      RunAll(parallel_instance, queries, threads);

  ASSERT_EQ(parallel.size(), forced_serial.size());
  for (size_t q = 0; q < forced_serial.size(); ++q) {
    ExpectSameResults(forced_serial[q], parallel[q], q,
                      /*expect_identical_ns=*/true);
  }
}

// Metrics and traces are pure observers: with the knobs on or off, query
// results and the simulated cost model must be bit-identical at the same
// thread count — including every ns field, since neither subsystem may add,
// remove, or reorder a single page fetch or fault draw.
TEST(ParallelEquivalenceTest, ObservabilityKnobsDoNotPerturbExecution) {
  const std::vector<Query> queries = RandomQueries(12);
  const bool metrics_were_enabled = MetricsEnabled();
  for (uint32_t threads : {1u, 2u, 4u}) {
    Instance off_instance;
    SetMetricsEnabled(false);
    SetTraceEnabled(false);
    const std::vector<QueryResult> off =
        RunAll(off_instance, queries, threads);

    Instance on_instance;
    SetMetricsEnabled(true);
    SetTraceEnabled(true);
    const std::vector<QueryResult> on = RunAll(on_instance, queries, threads);
    SetTraceEnabled(false);
    SetMetricsEnabled(metrics_were_enabled);

    ASSERT_EQ(on.size(), off.size());
    for (size_t q = 0; q < off.size(); ++q) {
      ExpectSameResults(off[q], on[q], q, /*expect_identical_ns=*/true);
      EXPECT_EQ(off[q].trace, nullptr);
      EXPECT_NE(on[q].trace, nullptr);
    }
  }
}

// Same property under an armed fault injector: the observability layer must
// not shift the seeded fault schedule by a single draw — statuses and the
// store's FaultStats match field for field.
TEST(ParallelEquivalenceTest, ObservabilityKnobsDoNotPerturbFaultSchedules) {
  FaultConfig faults;
  faults.seed = 11;
  faults.read_error_rate = 0.08;
  faults.read_corruption_rate = 0.03;
  faults.page_failure_rate = 0.004;
  faults.latency_spike_rate = 0.05;
  const std::vector<Query> queries = RandomQueries(12);
  const bool metrics_were_enabled = MetricsEnabled();
  for (uint32_t threads : {1u, 4u}) {
    Instance off_instance(faults);
    SetMetricsEnabled(false);
    SetTraceEnabled(false);
    const std::vector<QueryResult> off =
        RunAll(off_instance, queries, threads);

    Instance on_instance(faults);
    SetMetricsEnabled(true);
    SetTraceEnabled(true);
    const std::vector<QueryResult> on = RunAll(on_instance, queries, threads);
    SetTraceEnabled(false);
    SetMetricsEnabled(metrics_were_enabled);

    ASSERT_EQ(on.size(), off.size());
    for (size_t q = 0; q < off.size(); ++q) {
      EXPECT_EQ(off[q].status.code(), on[q].status.code()) << "query " << q;
      EXPECT_EQ(off[q].status.message(), on[q].status.message())
          << "query " << q;
      ExpectSameResults(off[q], on[q], q, /*expect_identical_ns=*/true);
    }
    ExpectSameFaultStats(off_instance.store.fault_stats(),
                         on_instance.store.fault_stats());
  }
}

TEST(ParallelEquivalenceTest, ParallelScanColumnMatchesScanBetween) {
  Instance instance;
  const AbstractColumn* mrc = instance.table.mrc(1);
  ASSERT_NE(mrc, nullptr);
  const Value lo(int32_t{10}), hi(int32_t{30});
  PositionList serial;
  mrc->ScanBetween(&lo, &hi, &serial);
  for (uint32_t threads : {1u, 2u, 8u}) {
    PositionList parallel;
    ParallelScanColumn(*mrc, &lo, &hi, threads, &parallel);
    EXPECT_EQ(parallel, serial) << threads;
  }
}

// ---------------------------------------------------------------------------
// Page-run tuple accounting and the direct materialize pass against the
// per-row reference they replace: one FetchPage per main position, then one
// boxed cell read per (row, fetch column), folded row at a time.

constexpr size_t kWideMainRows = 9000;  // > 2 stop-poll batches of 4096
constexpr size_t kWideDeltaRows = 150;

/// id/grp/price/name live in DRAM; amount/qty/tag form a 24-byte SSCG row
/// (170 rows per page, so page runs straddle the 4096-position polls).
Schema WideSchema() {
  Schema schema;
  schema.push_back({"id", DataType::kInt32, 0});
  schema.push_back({"grp", DataType::kInt32, 0});
  schema.push_back({"amount", DataType::kDouble, 0});
  schema.push_back({"qty", DataType::kInt64, 0});
  schema.push_back({"price", DataType::kFloat, 0});
  schema.push_back({"tag", DataType::kString, 8});
  schema.push_back({"name", DataType::kString, 8});
  return schema;
}

struct WideInstance {
  TransactionManager txns;
  SecondaryStore store;
  BufferManager buffers;
  Table table;

  /// `dead_page`: index of an SSCG page whose stored bytes are corrupted
  /// after placement, so its first read fails with kDataLoss.
  WideInstance(size_t frames, std::optional<size_t> dead_page)
      : store(DeviceKind::kCssd, /*timing_seed=*/5, FaultConfig()),
        buffers(&store, frames),
        table("wide", WideSchema(), &txns, &store, &buffers) {
    Rng rng(77);
    auto random_row = [&](int32_t id) {
      return Row{Value(id), Value(int32_t(rng.NextInt(0, 40))),
                 Value(double(rng.NextInt(0, 4000)) / 4.0),
                 Value(int64_t(rng.NextInt(-5000, 5000))),
                 Value(float(rng.NextInt(0, 900)) / 8.0f),
                 Value("t" + std::to_string(rng.NextInt(0, 300))),
                 Value("n" + std::to_string(rng.NextInt(0, 50)))};
    };
    std::vector<Row> rows;
    for (size_t r = 0; r < kWideMainRows; ++r) {
      rows.push_back(random_row(int32_t(r)));
    }
    table.BulkLoad(rows);
    EXPECT_TRUE(
        table.SetPlacement({true, true, false, false, true, false, true}).ok());
    if (dead_page.has_value()) {
      FaultConfig corrupt;
      corrupt.seed = 3;
      corrupt.write_corruption_rate = 1.0;
      store.ConfigureFaults(corrupt);
      const PageId id = table.sscg()->page_ids()[*dead_page];
      const SecondaryStore::Page page = store.RawPage(id);
      store.WritePage(id, page);
      store.ConfigureFaults(FaultConfig());
    }
    // Delta rows carry the values whose fold order shows: NaN, -0.0/+0.0
    // ties, and the extremes.
    const double specials[] = {std::numeric_limits<double>::quiet_NaN(),
                               -0.0, 0.0, -1e300, 1e300};
    Transaction txn = txns.Begin();
    for (size_t d = 0; d < kWideDeltaRows; ++d) {
      Row row = random_row(int32_t(kWideMainRows + d));
      if (d % 7 == 0) row[2] = Value(specials[(d / 7) % 5]);
      if (d % 11 == 0) row[4] = Value(d % 2 == 0 ? -0.0f : 0.0f);
      EXPECT_TRUE(table.Insert(txn, row).ok());
    }
    txns.Commit(&txn);
  }
};

std::vector<Query> WideQueries() {
  std::vector<Query> queries;
  // Every row; projections over both tiers plus non-projected inputs.
  Query all;
  all.projections = {0, 2, 3, 5};
  all.aggregates = {Aggregate::Count(),  Aggregate::Sum(2), Aggregate::Sum(4),
                    Aggregate::Min(3),   Aggregate::Max(5), Aggregate::Min(4),
                    Aggregate::Max(2),   Aggregate::Min(6), Aggregate::Sum(1)};
  queries.push_back(all);
  // Projection-free aggregates over MRC, SSCG and delta cells.
  Query aggregates_only;
  aggregates_only.aggregates = {Aggregate::Count(), Aggregate::Sum(2),
                                Aggregate::Sum(3),  Aggregate::Min(1),
                                Aggregate::Max(2),  Aggregate::Min(5),
                                Aggregate::Min(2),  Aggregate::Max(4)};
  queries.push_back(aggregates_only);
  // Sparse positions (gaps inside and across pages), a duplicated
  // projection, and aggregates over projected and hidden columns.
  Query sparse;
  sparse.predicates.push_back(
      Predicate::Between(1, Value(int32_t{3}), Value(int32_t{9})));
  sparse.projections = {3, 1, 3, 6};
  sparse.aggregates = {Aggregate::Sum(3), Aggregate::Max(4), Aggregate::Min(2),
                       Aggregate::Sum(2)};
  queries.push_back(sparse);
  // DRAM-only aggregates: no SSCG page is fetched at all.
  Query dram_only;
  dram_only.predicates.push_back(
      Predicate::Between(0, Value(int32_t{100}), Value(int32_t{5000})));
  dram_only.aggregates = {Aggregate::Count(), Aggregate::Sum(4),
                          Aggregate::Max(6)};
  queries.push_back(dram_only);
  return queries;
}

/// One per-row FetchPage of tuple `row`'s page, accounted field by field.
Status PerRowFetch(const Sscg& sscg, RowId row, BufferManager* buffers,
                   uint32_t threads, IoStats* io) {
  const PageId id = sscg.page_ids()[sscg.layout().PageOf(row)];
  auto fetch = buffers->FetchPage(id, AccessPattern::kRandom, threads);
  if (!fetch.ok()) {
    if (fetch.status().code() == StatusCode::kDataLoss) ++io->verify_failures;
    if (buffers->store()->IsQuarantined(id)) ++io->quarantined_pages;
    return fetch.status();
  }
  if (fetch->hit) {
    io->dram_ns += fetch->latency_ns;
    ++io->cache_hits;
  } else {
    io->device_ns += fetch->latency_ns;
    io->retry_backoff_ns += fetch->retry_ns;
    ++io->page_reads;
    io->retries += fetch->retries;
    io->checksum_failures += fetch->checksum_failures;
  }
  return Status::Ok();
}

double ReferenceSumInput(const Value& v) {
  switch (v.type()) {
    case DataType::kInt32:
      return double(v.AsInt32());
    case DataType::kInt64:
      return double(v.AsInt64());
    case DataType::kFloat:
      return double(v.AsFloat());
    case DataType::kDouble:
      return v.AsDouble();
    case DataType::kString:
      break;
  }
  ADD_FAILURE() << "SUM over a string column";
  return 0.0;
}

/// The per-row materialize the engine replaced, over `result` (positions
/// and IO of the same query without projections or aggregates). Returns
/// the status; `failed_at` receives the failing position's index.
Status ReferenceMaterialize(const Table& table, const Query& query,
                            BufferManager* buffers, uint32_t threads,
                            QueryResult* result, size_t* failed_at) {
  std::vector<ColumnId> fetch_cols = query.projections;
  std::vector<size_t> aggregate_slot(query.aggregates.size(), SIZE_MAX);
  for (size_t a = 0; a < query.aggregates.size(); ++a) {
    const Aggregate& agg = query.aggregates[a];
    if (agg.kind == Aggregate::Kind::kCount) continue;
    auto it = std::find(fetch_cols.begin(), fetch_cols.end(), agg.column);
    aggregate_slot[a] = size_t(it - fetch_cols.begin());
    if (it == fetch_cols.end()) fetch_cols.push_back(agg.column);
  }
  bool any_sscg = false;
  for (ColumnId c : fetch_cols) {
    any_sscg |= table.location(c) == ColumnLocation::kSecondary;
  }
  const Sscg* sscg = table.sscg();
  const size_t main_rows = table.main_row_count();
  const PositionList& positions = result->positions;
  for (size_t i = 0; any_sscg && i < positions.size(); ++i) {
    if (positions[i] >= main_rows) continue;
    Status status =
        PerRowFetch(*sscg, positions[i], buffers, threads, &result->io);
    if (!status.ok()) {
      *failed_at = i;
      return status;
    }
  }
  std::vector<double> sums(query.aggregates.size(), 0.0);
  std::vector<std::optional<Value>> best(query.aggregates.size());
  for (RowId row : positions) {
    Row fetched(fetch_cols.size());
    for (size_t p = 0; p < fetch_cols.size(); ++p) {
      const ColumnId c = fetch_cols[p];
      if (row < main_rows &&
          table.location(c) == ColumnLocation::kSecondary) {
        fetched[p] = sscg->RawValue(
            row, size_t(sscg->layout().SlotOf(c)), *table.store());
      } else {
        fetched[p] = *table.GetValue(c, row, threads, &result->io);
      }
    }
    for (size_t a = 0; a < query.aggregates.size(); ++a) {
      const Value* v = aggregate_slot[a] == SIZE_MAX
                           ? nullptr
                           : &fetched[aggregate_slot[a]];
      switch (query.aggregates[a].kind) {
        case Aggregate::Kind::kCount:
          break;
        case Aggregate::Kind::kSum:
          sums[a] += ReferenceSumInput(*v);
          break;
        case Aggregate::Kind::kMin:
          if (!best[a].has_value() || *v < *best[a]) best[a] = *v;
          break;
        case Aggregate::Kind::kMax:
          if (!best[a].has_value() || *best[a] < *v) best[a] = *v;
          break;
      }
    }
    if (!query.projections.empty()) {
      fetched.resize(query.projections.size());
      result->rows.push_back(std::move(fetched));
    }
  }
  for (size_t a = 0; a < query.aggregates.size(); ++a) {
    switch (query.aggregates[a].kind) {
      case Aggregate::Kind::kCount:
        result->aggregate_values.push_back(Value(int64_t(positions.size())));
        break;
      case Aggregate::Kind::kSum:
        result->aggregate_values.push_back(Value(sums[a]));
        break;
      case Aggregate::Kind::kMin:
      case Aggregate::Kind::kMax:
        result->aggregate_values.push_back(best[a].value_or(Value()));
        break;
    }
  }
  return Status::Ok();
}

/// Same type and, for floating point, the same bits (NaN payloads, -0.0).
void ExpectSameBits(const Value& a, const Value& b, const std::string& what) {
  ASSERT_EQ(a.type(), b.type()) << what;
  if (a.type() == DataType::kDouble) {
    const double x = a.AsDouble(), y = b.AsDouble();
    EXPECT_EQ(0, std::memcmp(&x, &y, sizeof(x))) << what << ": " << x
                                                 << " vs " << y;
  } else if (a.type() == DataType::kFloat) {
    const float x = a.AsFloat(), y = b.AsFloat();
    EXPECT_EQ(0, std::memcmp(&x, &y, sizeof(x))) << what << ": " << x
                                                 << " vs " << y;
  } else {
    EXPECT_TRUE(a == b) << what;
  }
}

void ExpectSameIo(const IoStats& a, const IoStats& b, const std::string& what) {
  EXPECT_EQ(a.device_ns, b.device_ns) << what;
  EXPECT_EQ(a.dram_ns, b.dram_ns) << what;
  EXPECT_EQ(a.retry_backoff_ns, b.retry_backoff_ns) << what;
  EXPECT_EQ(a.page_reads, b.page_reads) << what;
  EXPECT_EQ(a.cache_hits, b.cache_hits) << what;
  EXPECT_EQ(a.retries, b.retries) << what;
  EXPECT_EQ(a.morsels_pruned, b.morsels_pruned) << what;
  EXPECT_EQ(a.pages_pruned, b.pages_pruned) << what;
  EXPECT_EQ(a.checksum_failures, b.checksum_failures) << what;
  EXPECT_EQ(a.verify_failures, b.verify_failures) << what;
  EXPECT_EQ(a.quarantined_pages, b.quarantined_pages) << what;
}

void ExpectSameBufferStats(const BufferStats& a, const BufferStats& b,
                           const std::string& what) {
  EXPECT_EQ(a.hits, b.hits) << what;
  EXPECT_EQ(a.misses, b.misses) << what;
  EXPECT_EQ(a.evictions, b.evictions) << what;
  EXPECT_EQ(a.read_failures, b.read_failures) << what;
  EXPECT_EQ(a.verify_failures, b.verify_failures) << what;
  EXPECT_EQ(a.quarantined_pages, b.quarantined_pages) << what;
}

TEST(MaterializeEquivalenceTest, MatchesPerRowReference) {
  const std::vector<Query> queries = WideQueries();
  Counter* hits_total =
      MetricsRegistry::Global().GetCounter("hytap_buffer_hits_total");
  const bool metrics_were_enabled = MetricsEnabled();
  SetMetricsEnabled(true);
  size_t failures_seen = 0;
  for (uint32_t threads : {1u, 2u, 4u}) {
    for (size_t frames : {size_t{1}, size_t{8}}) {
      for (std::optional<size_t> dead : {std::optional<size_t>(),
                                         std::optional<size_t>(26)}) {
        WideInstance engine(frames, dead);
        WideInstance reference(frames, dead);
        QueryExecutor engine_exec(&engine.table);
        QueryExecutor reference_exec(&reference.table);
        Transaction engine_txn = engine.txns.Begin();
        Transaction reference_txn = reference.txns.Begin();
        for (size_t q = 0; q < queries.size(); ++q) {
          const std::string what =
              "threads=" + std::to_string(threads) +
              " frames=" + std::to_string(frames) +
              " dead=" + std::to_string(dead.has_value()) +
              " query=" + std::to_string(q);
          const uint64_t engine_hits_before = hits_total->Value();
          const BufferStats engine_before = engine.buffers.stats();
          const QueryResult got =
              engine_exec.Execute(engine_txn, queries[q], threads);
          const uint64_t engine_hits = hits_total->Value() - engine_hits_before;

          const uint64_t reference_hits_before = hits_total->Value();
          const BufferStats reference_before = reference.buffers.stats();
          Query positions_only = queries[q];
          positions_only.projections.clear();
          positions_only.aggregates.clear();
          QueryResult want =
              reference_exec.Execute(reference_txn, positions_only, threads);
          ASSERT_TRUE(want.status.ok()) << what;
          size_t failed_at = SIZE_MAX;
          want.status =
              ReferenceMaterialize(reference.table, queries[q],
                                   &reference.buffers, threads, &want,
                                   &failed_at);
          const uint64_t reference_hits =
              hits_total->Value() - reference_hits_before;

          EXPECT_EQ(got.status.code(), want.status.code()) << what;
          EXPECT_EQ(got.status.message(), want.status.message()) << what;
          ExpectSameIo(got.io, want.io, what);
          ExpectSameBufferStats(engine.buffers.stats(),
                                reference.buffers.stats(), what);
          EXPECT_EQ(engine_hits, reference_hits) << what;
          if (!want.status.ok()) {
            // The engine stopped at the same position: its fetch count
            // through the failing one equals the reference's.
            ++failures_seen;
            const BufferStats after = engine.buffers.stats();
            size_t main_before = 0;
            for (size_t i = 0; i < failed_at; ++i) {
              main_before += want.positions[i] < kWideMainRows;
            }
            EXPECT_EQ(after.hits + after.misses -
                          (engine_before.hits + engine_before.misses),
                      main_before + 1)
                << what;
            const BufferStats ref_after = reference.buffers.stats();
            EXPECT_EQ(ref_after.hits + ref_after.misses -
                          (reference_before.hits + reference_before.misses),
                      main_before + 1)
                << what;
            EXPECT_TRUE(got.rows.empty()) << what;
            EXPECT_TRUE(got.aggregate_values.empty()) << what;
            continue;
          }
          EXPECT_EQ(got.positions, want.positions) << what;
          ASSERT_EQ(got.rows.size(), want.rows.size()) << what;
          for (size_t i = 0; i < got.rows.size(); ++i) {
            ASSERT_EQ(got.rows[i].size(), want.rows[i].size()) << what;
            for (size_t p = 0; p < got.rows[i].size(); ++p) {
              ExpectSameBits(got.rows[i][p], want.rows[i][p],
                             what + " row " + std::to_string(i));
            }
          }
          ASSERT_EQ(got.aggregate_values.size(), want.aggregate_values.size())
              << what;
          for (size_t a = 0; a < got.aggregate_values.size(); ++a) {
            ExpectSameBits(got.aggregate_values[a], want.aggregate_values[a],
                           what + " aggregate " + std::to_string(a));
          }
        }
        engine.txns.Abort(&engine_txn);
        reference.txns.Abort(&reference_txn);
        ExpectSameFaultStats(engine.store.fault_stats(),
                             reference.store.fault_stats());
      }
    }
  }
  SetMetricsEnabled(metrics_were_enabled);
  // The dead page failed the SSCG queries of every dead-page configuration.
  EXPECT_EQ(failures_seen, 3u * 2u * 3u);
}

// Sscg::AccountTupleFetches alone against per-row fetches of the same rows:
// repeated rows, page-straddling runs, gaps, and a dead page mid-list.
TEST(MaterializeEquivalenceTest, AccountTupleFetchesMatchesPerRowFetches) {
  PositionList rows;
  for (RowId r = 160; r < 700; r += 3) rows.push_back(r);
  // 4420 starts page 26, the dead page of the fault case.
  rows.insert(rows.end(),
              {700, 700, 701, 4000, 4001, 4418, 4419, 4420, 4421, 4450, 4451});
  for (RowId r = 4452; r < 8000; r += 41) rows.push_back(r);
  for (size_t frames : {size_t{1}, size_t{3}}) {
    for (std::optional<size_t> dead :
         {std::optional<size_t>(), std::optional<size_t>(26)}) {
      WideInstance engine(frames, dead);
      WideInstance reference(frames, dead);
      IoStats got_io, want_io;
      const Status got = engine.table.sscg()->AccountTupleFetches(
          rows.data(), rows.size(), &engine.buffers, 2, &got_io);
      Status want = Status::Ok();
      size_t fetches = 0;
      for (RowId row : rows) {
        ++fetches;
        want = PerRowFetch(*reference.table.sscg(), row, &reference.buffers,
                           2, &want_io);
        if (!want.ok()) break;
      }
      const std::string what = "frames=" + std::to_string(frames) +
                               " dead=" + std::to_string(dead.has_value());
      EXPECT_EQ(got.code(), want.code()) << what;
      EXPECT_EQ(dead.has_value(), !got.ok()) << what;
      ExpectSameIo(got_io, want_io, what);
      ExpectSameBufferStats(engine.buffers.stats(), reference.buffers.stats(),
                            what);
      const BufferStats stats = engine.buffers.stats();
      EXPECT_EQ(stats.hits + stats.misses, fetches) << what;
      for (PageId id : engine.table.sscg()->page_ids()) {
        EXPECT_EQ(engine.buffers.IsResident(id),
                  reference.buffers.IsResident(id))
            << what << " page " << id;
      }
    }
  }
}

// Table::ReconstructRow (the replay path) charges exactly one tuple fetch
// plus two DRAM touches per MRC cell, and returns every cell.
TEST(MaterializeEquivalenceTest, ReconstructRowMatchesPerCellReads) {
  WideInstance engine(4, std::nullopt);
  WideInstance reference(4, std::nullopt);
  const Table& table = engine.table;
  for (RowId row : {RowId{0}, RowId{169}, RowId{170}, RowId{171},
                    RowId{8999}, RowId{kWideMainRows + 3}}) {
    IoStats got_io, want_io;
    auto got = table.ReconstructRow(row, 2, &got_io);
    ASSERT_TRUE(got.ok());
    const Table& ref = reference.table;
    if (row < kWideMainRows) {
      ASSERT_TRUE(
          PerRowFetch(*ref.sscg(), row, &reference.buffers, 2, &want_io).ok());
    }
    for (ColumnId c = 0; c < ref.column_count(); ++c) {
      Value want;
      if (row < kWideMainRows &&
          ref.location(c) == ColumnLocation::kSecondary) {
        want = ref.sscg()->RawValue(row, size_t(ref.sscg()->layout().SlotOf(c)),
                                    *ref.store());
      } else {
        want = *ref.GetValue(c, row, 2, &want_io);
      }
      ExpectSameBits((*got)[c], want,
                     "row " + std::to_string(row) + " col " +
                         std::to_string(c));
    }
    ExpectSameIo(got_io, want_io, "row " + std::to_string(row));
  }
}

// MergeDelta of the wide table: its delta carries NaN, -0.0 and +0.0 into
// SSCG column 2 (written bit for bit) and signed zeros into MRC column 4.
// Every WideQueries result is the same before and after the merge.
TEST(MaterializeEquivalenceTest, MergeKeepsWideQueryResults) {
  const std::vector<Query> queries = WideQueries();
  for (uint32_t threads : {1u, 4u}) {
    WideInstance instance(8, std::nullopt);
    QueryExecutor executor(&instance.table);
    auto run = [&] {
      std::vector<QueryResult> results;
      Transaction txn = instance.txns.Begin();
      for (const Query& query : queries) {
        results.push_back(executor.Execute(txn, query, threads));
      }
      instance.txns.Abort(&txn);
      return results;
    };
    const std::vector<QueryResult> before = run();
    ASSERT_TRUE(instance.table.MergeDelta().ok());
    ASSERT_EQ(instance.table.main_row_count(), kWideMainRows + kWideDeltaRows);
    const std::vector<QueryResult> after = run();
    for (size_t q = 0; q < queries.size(); ++q) {
      const std::string what = "threads=" + std::to_string(threads) +
                               " query=" + std::to_string(q);
      ASSERT_TRUE(before[q].status.ok()) << what;
      ASSERT_TRUE(after[q].status.ok()) << what;
      EXPECT_EQ(before[q].positions, after[q].positions) << what;
      ASSERT_EQ(before[q].rows.size(), after[q].rows.size()) << what;
      for (size_t i = 0; i < before[q].rows.size(); ++i) {
        ASSERT_EQ(before[q].rows[i].size(), after[q].rows[i].size()) << what;
        for (size_t p = 0; p < before[q].rows[i].size(); ++p) {
          ExpectSameBits(before[q].rows[i][p], after[q].rows[i][p],
                         what + " row " + std::to_string(i));
        }
      }
      ASSERT_EQ(before[q].aggregate_values.size(),
                after[q].aggregate_values.size())
          << what;
      for (size_t a = 0; a < before[q].aggregate_values.size(); ++a) {
        ExpectSameBits(before[q].aggregate_values[a],
                       after[q].aggregate_values[a],
                       what + " aggregate " + std::to_string(a));
      }
    }
  }
}

}  // namespace
}  // namespace hytap
