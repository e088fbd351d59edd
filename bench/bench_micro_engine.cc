// Micro-benchmarks of the storage-engine building blocks (real wall time,
// google-benchmark): dictionary encode/lookup, bit-packed access, B+-tree,
// MRC scan/probe, buffer-manager fetch, the main-partition rebuild (column
// encode, placement change, merge), and the selection solvers.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "common/random.h"
#include "selection/selectors.h"
#include "storage/bit_packed_vector.h"
#include "storage/bplus_tree.h"
#include "storage/dictionary_column.h"
#include "storage/table.h"
#include "tiering/buffer_manager.h"
#include "workload/enterprise.h"
#include "workload/example1.h"
#include "workload/tpcc.h"

namespace hytap {
namespace {

void BM_DictionaryBuild(benchmark::State& state) {
  Rng rng(1);
  std::vector<int32_t> values;
  for (int64_t i = 0; i < state.range(0); ++i) {
    values.push_back(int32_t(rng.NextBounded(100000)));
  }
  for (auto _ : state) {
    auto dict = OrderPreservingDictionary<int32_t>::Build(values);
    benchmark::DoNotOptimize(dict.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DictionaryBuild)->Arg(10000)->Arg(100000);

void BM_DictionaryLookup(benchmark::State& state) {
  Rng rng(1);
  std::vector<int32_t> values;
  for (int i = 0; i < 100000; ++i) {
    values.push_back(int32_t(rng.NextBounded(100000)));
  }
  auto dict = OrderPreservingDictionary<int32_t>::Build(values);
  int32_t probe = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dict.CodeFor(probe));
    probe = (probe + 7919) % 100000;
  }
}
BENCHMARK(BM_DictionaryLookup);

constexpr size_t kBuildRows = 200000;

/// One MRC's sort-once encode of 200k int32 values drawn from
/// [0, cardinality).
void BM_DictionaryColumnBuild(benchmark::State& state) {
  Rng rng(1);
  std::vector<int32_t> values(kBuildRows);
  for (int32_t& v : values) {
    v = int32_t(rng.NextBounded(uint64_t(state.range(0))));
  }
  for (auto _ : state) {
    auto column = DictionaryColumn<int32_t>::Build(values);
    benchmark::DoNotOptimize(column->MemoryUsage());
  }
  state.SetItemsProcessed(state.iterations() * int64_t(kBuildRows));
}
BENCHMARK(BM_DictionaryColumnBuild)->ArgName("cardinality")->Arg(1000)->Arg(
    200000);

/// The same over 200k ORDERLINE-style strings (11-15 characters, 100k
/// distinct).
void BM_DictionaryColumnBuildString(benchmark::State& state) {
  Rng rng(1);
  std::vector<std::string> values(kBuildRows);
  for (std::string& v : values) {
    v = "dist-info-" + std::to_string(rng.NextBounded(100000));
  }
  for (auto _ : state) {
    auto column = DictionaryColumn<std::string>::Build(values);
    benchmark::DoNotOptimize(column->MemoryUsage());
  }
  state.SetItemsProcessed(state.iterations() * int64_t(kBuildRows));
}
BENCHMARK(BM_DictionaryColumnBuildString);

/// A table with its own store, so every iteration starts from fresh pages.
struct RebuildFixture {
  TransactionManager txns;
  SecondaryStore store{DeviceKind::kCssd, 42, FaultConfig()};
  BufferManager buffers{&store, 64};
  Table table;

  RebuildFixture(const Schema& schema, const std::vector<Row>& rows)
      : table("t", schema, &txns, &store, &buffers) {
    table.BulkLoad(rows);
  }
};

/// Re-tiering a BSEG-shaped table (48 int32 attributes, 100k rows) from all
/// DRAM to a 30 % budget: the lowest-numbered columns that fit stay in DRAM.
void BM_SetPlacement(benchmark::State& state) {
  EnterpriseProfile profile = BsegProfile();
  profile.attribute_count = 48;
  const Schema schema = MakeEnterpriseSchema(profile);
  const std::vector<Row> rows = GenerateEnterpriseRows(profile, 100000, 3);
  for (auto _ : state) {
    state.PauseTiming();
    RebuildFixture fixture(schema, rows);
    size_t total = 0;
    for (ColumnId c = 0; c < schema.size(); ++c) {
      total += fixture.table.ColumnDramBytes(c);
    }
    std::vector<bool> in_dram(schema.size(), false);
    size_t used = 0;
    for (ColumnId c = 0; c < schema.size(); ++c) {
      used += fixture.table.ColumnDramBytes(c);
      in_dram[c] = used <= total * 3 / 10;
    }
    state.ResumeTiming();
    const Status status = fixture.table.SetPlacement(in_dram);
    benchmark::DoNotOptimize(status.ok());
  }
  state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_SetPlacement)->Unit(benchmark::kMillisecond);

/// Merging an 8 % delta into an ORDERLINE table placed at the paper's
/// w = 0.2 (primary key and ol_i_id in DRAM, the rest in the SSCG).
void BM_MergeDelta(benchmark::State& state) {
  OrderlineParams params;
  params.warehouses = 4;
  const std::vector<Row> rows = GenerateOrderlineRows(params);
  const size_t main_rows = rows.size() * 92 / 100;
  const std::vector<Row> main(rows.begin(), rows.begin() + main_rows);
  std::vector<bool> in_dram(OrderlineSchema().size(), false);
  for (ColumnId c : OrderlinePrimaryKey()) in_dram[c] = true;
  in_dram[kOlIId] = true;
  for (auto _ : state) {
    state.PauseTiming();
    RebuildFixture fixture(OrderlineSchema(), main);
    benchmark::DoNotOptimize(fixture.table.SetPlacement(in_dram).ok());
    Transaction txn = fixture.txns.Begin();
    for (size_t r = main_rows; r < rows.size(); ++r) {
      benchmark::DoNotOptimize(fixture.table.Insert(txn, rows[r]).ok());
    }
    fixture.txns.Commit(&txn);
    state.ResumeTiming();
    const Status status = fixture.table.MergeDelta();
    benchmark::DoNotOptimize(status.ok());
  }
  state.SetItemsProcessed(state.iterations() * int64_t(rows.size()));
}
BENCHMARK(BM_MergeDelta)->Unit(benchmark::kMillisecond);

void BM_BitPackedGet(benchmark::State& state) {
  BitPackedVector v(uint32_t(state.range(0)));
  const uint64_t mask = (1ULL << state.range(0)) - 1;
  for (uint64_t i = 0; i < 100000; ++i) v.Append(i & mask);
  size_t idx = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(v.Get(idx));
    idx = (idx + 7919) % 100000;
  }
}
BENCHMARK(BM_BitPackedGet)->Arg(7)->Arg(13)->Arg(31);

void BM_BPlusTreeInsert(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    state.PauseTiming();
    BPlusTree<int64_t, uint64_t> tree;
    state.ResumeTiming();
    for (int64_t i = 0; i < state.range(0); ++i) {
      tree.Insert(int64_t(rng.NextBounded(1u << 20)), uint64_t(i));
    }
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BPlusTreeInsert)->Arg(10000);

void BM_BPlusTreeLookup(benchmark::State& state) {
  Rng rng(1);
  BPlusTree<int64_t, uint64_t> tree;
  for (int64_t i = 0; i < 100000; ++i) {
    tree.Insert(int64_t(rng.NextBounded(1u << 20)), uint64_t(i));
  }
  int64_t probe = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Lookup(probe));
    probe = (probe + 7919) % (1 << 20);
  }
}
BENCHMARK(BM_BPlusTreeLookup);

void BM_MrcScan(benchmark::State& state) {
  Rng rng(1);
  std::vector<int32_t> values;
  for (int64_t i = 0; i < state.range(0); ++i) {
    values.push_back(int32_t(rng.NextBounded(1000)));
  }
  auto column = DictionaryColumn<int32_t>::Build(values);
  Value v(int32_t{5});
  for (auto _ : state) {
    PositionList out;
    column->ScanBetween(&v, &v, &out);
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MrcScan)->Arg(100000)->Arg(1000000);

void BM_BufferManagerHit(benchmark::State& state) {
  SecondaryStore store(DeviceKind::kXpoint);
  for (int i = 0; i < 64; ++i) store.AllocatePage();
  BufferManager buffers(&store, 64);
  for (PageId id = 0; id < 64; ++id) {
    buffers.FetchPage(id, AccessPattern::kRandom);
  }
  PageId id = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(buffers.FetchPage(id, AccessPattern::kRandom));
    id = (id + 17) % 64;
  }
}
BENCHMARK(BM_BufferManagerHit);

void BM_ExplicitSelection(benchmark::State& state) {
  Workload workload = GenerateScalabilityWorkload(size_t(state.range(0)),
                                                  size_t(state.range(0)) * 10,
                                                  7);
  auto problem = SelectionProblem::FromRelativeBudget(
      workload, ScanCostParams{1.0, 100.0}, 0.3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SelectExplicit(problem).dram_bytes);
  }
}
BENCHMARK(BM_ExplicitSelection)->Arg(1000)->Arg(10000);

void BM_IntegerSelection(benchmark::State& state) {
  Workload workload = GenerateScalabilityWorkload(size_t(state.range(0)),
                                                  size_t(state.range(0)) * 10,
                                                  7);
  auto problem = SelectionProblem::FromRelativeBudget(
      workload, ScanCostParams{1.0, 100.0}, 0.3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SelectIntegerOptimal(problem).dram_bytes);
  }
}
BENCHMARK(BM_IntegerSelection)->Arg(1000);

}  // namespace
}  // namespace hytap

// Expanded BENCHMARK_MAIN() so the optional metrics snapshot can be written
// after the benchmark run.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  hytap::bench::MaybeWriteMetricsSnapshot("micro_engine");
  return 0;
}
