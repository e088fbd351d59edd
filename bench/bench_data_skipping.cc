// Data-skipping effectiveness: zone maps, SSCG slot synopses, and the
// candidate-restricted rescan, measured with HYTAP_ZONE_MAPS on vs off on
// the same data and queries. Results must be bit-identical either way — the
// skipping layer only removes provably irrelevant work.
//
// Acceptance gate (ISSUE 3): a 0.1%-selectivity predicate over a tiered
// (clustered) column must show >= 5x fewer `page_reads` with pruning on
// than off. The process exits non-zero if the gate fails, so the CI bench
// smoke job doubles as a regression check.
//
// Results are printed as tables and written to BENCH_data_skipping.json.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/random.h"
#include "query/executor.h"
#include "query/scan.h"
#include "storage/dictionary_column.h"
#include "storage/sscg.h"
#include "storage/table.h"
#include "storage/zone_map.h"

using namespace hytap;

namespace {

struct Sample {
  std::string op;
  uint32_t threads;
  uint64_t value_off;  // counter with skipping off
  uint64_t value_on;   // same counter with skipping on
  uint64_t pruned;     // pages/morsels pruned with skipping on
};

std::vector<Sample> g_samples;

void Record(const char* op, uint32_t threads, uint64_t off, uint64_t on,
            uint64_t pruned) {
  g_samples.push_back({op, threads, off, on, pruned});
  const double ratio = on == 0 ? double(off) : double(off) / double(on);
  std::printf("  %-24s %2u threads: off=%8llu  on=%8llu  pruned=%8llu  "
              "(%.1fx)\n",
              op, threads, (unsigned long long)off, (unsigned long long)on,
              (unsigned long long)pruned, ratio);
}

void WriteJson(const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < g_samples.size(); ++i) {
    const Sample& s = g_samples[i];
    std::fprintf(f,
                 "  {\"op\": \"%s\", \"threads\": %u, \"off\": %llu, "
                 "\"on\": %llu, \"pruned\": %llu}%s\n",
                 s.op.c_str(), s.threads, (unsigned long long)s.value_off,
                 (unsigned long long)s.value_on,
                 (unsigned long long)s.pruned,
                 i + 1 < g_samples.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path);
}

void RequireIdentical(const PositionList& a, const PositionList& b,
                      const char* what) {
  if (a != b) {
    std::fprintf(stderr, "FAIL: %s results differ with skipping on vs off "
                         "(%zu vs %zu positions)\n",
                 what, a.size(), b.size());
    std::exit(1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bool small = argc > 1 && std::string(argv[1]) == "--small";
  bool gate_passed = true;

  // --- SSCG slot synopsis: the acceptance-gate measurement. Clustered
  // (sorted) tiered column, 0.1%-selectivity range predicate: only the
  // pages whose value span overlaps the range are fetched. ---
  bench::PrintHeader("SSCG synopsis pruning (clustered column, 0.1% sel)");
  {
    const size_t rows = small ? 50000 : 200000;
    const size_t width = 10;  // 40-byte rows: ~102 rows per 4 KB page
    Schema schema;
    for (size_t c = 0; c < width; ++c) {
      schema.push_back({"c" + std::to_string(c), DataType::kInt32, 0});
    }
    std::vector<Row> data;
    data.reserve(rows);
    for (size_t r = 0; r < rows; ++r) {
      Row row;
      row.reserve(width);
      for (size_t c = 0; c < width; ++c) {
        row.emplace_back(int32_t(r));  // clustered: page spans are disjoint
      }
      data.push_back(std::move(row));
    }
    SecondaryStore store(DeviceKind::kCssd);
    std::vector<ColumnId> members;
    for (ColumnId c = 0; c < width; ++c) members.push_back(c);
    const RowLayout layout(schema, members);
    Sscg sscg(layout, TransposeRows(layout.SlotTypes(), data), &store);
    BufferManager buffers(&store, 16);  // tiny cache: scans hit the device
    const int32_t span = int32_t(rows / 1000);  // 0.1% of the rows
    const Value lo(int32_t(rows / 2));
    const Value hi(int32_t(rows / 2 + span - 1));
    std::printf("%zu rows, %zu pages, predicate spans %d values\n", rows,
                sscg.page_count(), span);

    PositionList off_out, on_out;
    IoStats off_io, on_io;
    SetZoneMapsEnabled(false);
    buffers.Clear();
    if (!sscg.ScanSlot(0, &lo, &hi, &buffers, 4, &off_out, &off_io).ok()) {
      return 1;
    }
    SetZoneMapsEnabled(true);
    buffers.Clear();
    if (!sscg.ScanSlot(0, &lo, &hi, &buffers, 4, &on_out, &on_io).ok()) {
      return 1;
    }
    RequireIdentical(off_out, on_out, "SSCG scan");
    Record("sscg_page_reads", 4, off_io.page_reads, on_io.page_reads,
           on_io.pages_pruned);
    Record("sscg_device_ns", 4, off_io.device_ns, on_io.device_ns,
           on_io.pages_pruned);
    if (on_io.page_reads * 5 > off_io.page_reads) {
      std::fprintf(stderr, "FAIL: page_reads reduction below the 5x gate "
                           "(off=%llu on=%llu)\n",
                   (unsigned long long)off_io.page_reads,
                   (unsigned long long)on_io.page_reads);
      gate_passed = false;
    }
  }

  // --- MRC zone maps: clustered dictionary column, selective range. Each
  // 64 Ki-row morsel is skipped before decode when its zone excludes the
  // code interval; report pruning and real wall time. ---
  bench::PrintHeader("MRC zone-map pruning (clustered dictionary column)");
  {
    const size_t rows = small ? 1000000 : 10000000;
    std::vector<int32_t> values;
    values.reserve(rows);
    for (size_t r = 0; r < rows; ++r) {
      values.push_back(int32_t(r / 1000));  // clustered, 1000-row runs
    }
    auto column = DictionaryColumn<int32_t>::Build(values);
    const Value lo(int32_t(rows / 2000)), hi(int32_t(rows / 2000 + 9));
    std::printf("%zu rows, ~0.1%% selectivity\n", rows);
    for (uint32_t threads : {1u, 4u}) {
      PositionList off_out, on_out;
      IoStats off_io, on_io;
      SetZoneMapsEnabled(false);
      bench::Stopwatch off_watch;
      ParallelScanColumn(*column, &lo, &hi, threads, &off_out, &off_io);
      const double off_secs = off_watch.Seconds();
      SetZoneMapsEnabled(true);
      bench::Stopwatch on_watch;
      ParallelScanColumn(*column, &lo, &hi, threads, &on_out, &on_io);
      const double on_secs = on_watch.Seconds();
      RequireIdentical(off_out, on_out, "MRC scan");
      Record("mrc_scan_us", threads, uint64_t(off_secs * 1e6),
             uint64_t(on_secs * 1e6), on_io.morsels_pruned);
    }
  }

  // --- Candidate-restricted rescan + end-to-end equivalence. The DRAM id
  // column is clustered, so the surviving candidates cover a narrow page
  // span of the tiered group; the payload values are uniform per page, so
  // the synopsis alone cannot prune — every page skipped below comes from
  // the candidate restriction on the scan-vs-probe switch. ---
  bench::PrintHeader("Candidate-restricted rescan + executor equivalence");
  {
    const size_t rows = small ? 50000 : 200000;
    Schema schema;
    schema.push_back({"id", DataType::kInt32, 0});
    for (size_t c = 1; c < 8; ++c) {
      schema.push_back({"p" + std::to_string(c), DataType::kInt32, 0});
    }
    std::vector<Row> data;
    data.reserve(rows);
    Rng rng(7);
    for (size_t r = 0; r < rows; ++r) {
      Row row;
      row.emplace_back(int32_t(r));  // clustered DRAM key
      for (size_t c = 1; c < 8; ++c) {
        row.emplace_back(int32_t(rng.NextBounded(1000)));  // unprunable
      }
      data.push_back(std::move(row));
    }
    TransactionManager txns;
    SecondaryStore store(DeviceKind::kCssd);
    BufferManager buffers(&store, 64);
    Table table("skip", schema, &txns, &store, &buffers);
    table.BulkLoad(data);
    std::vector<bool> placement(schema.size(), false);
    placement[0] = true;  // id stays in DRAM, payload is tiered
    if (!table.SetPlacement(placement).ok()) return 1;

    QueryExecutor executor(&table);
    Transaction txn = txns.Begin();
    // 2% of the ids (well above the probe threshold) + a payload range:
    // the executor rescans the tiered group, restricted to the candidates.
    Query query;
    query.predicates.push_back(Predicate::Between(
        0, Value(int32_t(rows / 4)), Value(int32_t(rows / 4 + rows / 50))));
    query.predicates.push_back(
        Predicate::Between(1, Value(int32_t{100}), Value(int32_t{499})));
    query.projections = {0, 2};
    query.aggregates = {Aggregate::Count(), Aggregate::Sum(3)};

    for (uint32_t threads : {1u, 2u, 4u}) {
      SetZoneMapsEnabled(false);
      buffers.Clear();
      QueryResult off = executor.Execute(txn, query, threads);
      SetZoneMapsEnabled(true);
      buffers.Clear();
      QueryResult on = executor.Execute(txn, query, threads);
      if (!off.status.ok() || !on.status.ok()) return 1;
      RequireIdentical(off.positions, on.positions, "executor");
      if (off.rows != on.rows || off.aggregate_values != on.aggregate_values ||
          off.candidate_trace != on.candidate_trace) {
        std::fprintf(stderr, "FAIL: executor rows/aggregates/trace differ\n");
        return 1;
      }
      Record("e2e_page_reads", threads, off.io.page_reads, on.io.page_reads,
             on.io.pages_pruned);
    }
    txns.Abort(&txn);
  }

  SetZoneMapsEnabled(true);
  WriteJson("BENCH_data_skipping.json");
  if (!gate_passed) {
    std::fprintf(stderr, "\nACCEPTANCE GATE FAILED\n");
    return 1;
  }
  std::printf("acceptance gate passed: >= 5x page_reads reduction\n");
  bench::MaybeWriteMetricsSnapshot("data_skipping");
  return 0;
}
