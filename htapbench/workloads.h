// Entry points of the four benchmark workloads and the engine-side helpers
// they share. See README.md for what each workload is for.

#ifndef HTAPBENCH_WORKLOADS_H_
#define HTAPBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/tiered_table.h"

namespace htapbench {

struct RunArgs {
  uint64_t seed = 1;
  /// Length of one measured pass in seconds.
  double seconds = 10.0;
  /// Traced run: report the per-layer metrics instead of the end-to-end
  /// ones (the untraced pass still runs first, for trace_overhead_pct).
  /// Spans of the traced pass go to `tracer`.
  bool trace = false;
  Tracer* tracer = nullptr;
};

RunReport RunHtapServing(const RunArgs& args);
RunReport RunOlapScan(const RunArgs& args);
RunReport RunTupleFetch(const RunArgs& args);
RunReport RunPlanFrontier(const RunArgs& args);

/// Set-ups per untraced run; setup_s is their median and the last one is
/// measured.
inline constexpr int kSetupRuns = 5;

/// Runs `count` set-ups through `setup(ScaledCpuClock&)`, which keeps only
/// the last result and calls the clock's Tick() between its steps, and
/// reports the median of their scaled CPU times as setup_s.
template <typename Fn>
void MeasureSetup(int count, RunReport* report, Fn&& setup) {
  std::vector<double> seconds, raw;
  for (int i = 0; i < count; ++i) {
    ScaledCpuClock clock;
    setup(clock);
    seconds.push_back(clock.Finish());
    raw.push_back(clock.raw_s());
  }
  report->Set("setup_s", Median(seconds), "s", seconds.size());
  report->facts["setup_cpu_s"] = Median(raw);
}

/// Reports qps as `ops` per scaled CPU second of `clock` (finished), with
/// the unscaled rate as a fact.
inline void ReportQps(uint64_t ops, const ScaledCpuClock& clock,
                      RunReport* report) {
  report->Set("qps", double(ops) / clock.scaled_s(), "1/s", ops);
  report->facts["qps_cpu"] = double(ops) / clock.raw_s();
}

/// Serial replay of `queries` against `table` through the engine's scan
/// primitives, one span per primitive (query.scan / query.probe /
/// query.delta / query.materialize under query.execute). Each query is also
/// executed by QueryExecutor; the replay must reproduce its positions and
/// candidate counts, which the check "replay_matches_executor" asserts. Sets
/// the query.* metrics.
void ReplayQueries(hytap::TieredTable* table,
                   const std::vector<hytap::Query>& queries, uint32_t threads,
                   Tracer* tracer, RunReport* report);

/// Kernel rates of the table's largest DRAM-resident integer column: MRC
/// scan GB/s at 1 and 4 threads, the 1-thread scan as a share of a memcpy
/// of the same bytes, and bit-unpacking ns per value.
void MeasureStorageKernels(const hytap::TieredTable& table, RunReport* report);

/// Sets the storage.* and tiering.* ratios from the summed IoStats of
/// `queries` executions.
void ReportIo(const hytap::IoStats& io, uint64_t queries, RunReport* report);

}  // namespace htapbench

#endif  // HTAPBENCH_WORKLOADS_H_
