// htap_bench: one end-to-end benchmark of the tiered HTAP engine.
//
//   htap_bench --workload <htap_serving|olap_scan|tuple_fetch|plan_frontier>
//              --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
// reports the per-layer metrics of a traced pass (plus trace_overhead_pct,
// the traced pass against an untraced one). The last stdout line is the
// result object {"correct", "attempted", "failed", "metrics"}; the line
// before it is the run's detail record (seed, host, build, checks, sample
// counts), which is also written to <out-dir>. Spans of a traced run are
// written to <out-dir>/spans-<workload>.json at exit.
//
// The engine runs with its default knobs: the run refuses to start when any
// HYTAP_* environment variable is set.

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "workloads.h"

#ifndef HTAP_BENCH_BUILD_TYPE
#define HTAP_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef HTAP_BENCH_GIT_SHA
#define HTAP_BENCH_GIT_SHA "unknown"
#endif

using namespace htapbench;

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"qps", "1/s"},
    {"sim_us", "us"},
    {"rss_mb", "MB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"serving.submit_us", "us"},
    {"serving.oltp_wait_p50_ms", "ms"},
    {"serving.olap_wait_p50_ms", "ms"},
    {"serving.write_gate_ms", "ms"},
    {"txn.commit_us", "us"},
    {"core.merge_ms", "ms"},
    {"core.merges", "count"},
    {"serving.read_p99_ms", "ms"},
    {"serving.write_p50_ms", "ms"},
    {"serving.write_p99_ms", "ms"},
    {"serving.olap_p50_ms", "ms"},
    {"serving.olap_p99_ms", "ms"},
    {"serving.late_p99_ms", "ms"},
    {"serving.rejected", "count"},
    {"query.execute_ms", "ms"},
    {"query.scan_ms", "ms"},
    {"query.probe_ms", "ms"},
    {"query.delta_ms", "ms"},
    {"query.materialize_ms", "ms"},
    {"query.self_ms", "ms"},
    {"query.rows_examined_per_result", "ratio"},
    {"query.replay_mismatches", "count"},
    {"query.sim_scan_probe_us", "us"},
    {"query.sim_delta_us", "us"},
    {"query.sim_materialize_us", "us"},
    {"query.sim_store_io_us", "us"},
    {"query.model_error.scan_probe", "ratio"},
    {"query.model_error.delta", "ratio"},
    {"query.model_error.materialize", "ratio"},
    {"query.model_error.total", "ratio"},
    {"storage.mrc_scan_gbps_1t", "GB/s"},
    {"storage.mrc_scan_gbps_4t", "GB/s"},
    {"storage.mrc_scan_roofline_pct", "%"},
    {"storage.decode_ns_per_value", "ns"},
    {"storage.morsels_pruned_ratio", "ratio"},
    {"storage.pages_pruned_ratio", "ratio"},
    {"storage.sscg_pages_per_query", "count"},
    {"tiering.buffer_hit_ratio", "ratio"},
    {"tiering.page_reads_per_query", "count"},
    {"tiering.evictions", "count"},
    {"tiering.device_share", "ratio"},
    {"core.advisor_ms", "ms"},
    {"core.apply_placement_ms", "ms"},
    {"core.migrated_mb", "MB"},
    {"storage.load_s", "s"},
    {"workload.generate_s", "s"},
    {"io.workload_parse_ms", "ms"},
    {"selection.model_ms", "ms"},
    {"selection.frontier_ms", "ms"},
    {"selection.frontier_points", "count"},
    {"selection.explicit_ms", "ms"},
    {"selection.greedy_ms", "ms"},
    {"selection.realloc_ms", "ms"},
    {"selection.moved_mb", "MB"},
    {"selection.plan_cost_ratio", "ratio"},
    {"solver.bnb_ms", "ms"},
    {"solver.bnb_nodes", "count"},
    {"solver.bnb_unproven", "count"},
    {"oltp_sim_us", "us"},
    {"olap_sim_us", "us"},
    {"op_p50_ms", "ms"},
    {"op_p90_ms", "ms"},
    {"op_p99_ms", "ms"},
    {"error_ratio", "ratio"},
    {"trace_overhead_pct", "%"},
};

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string out_dir = ".bench_results";
};

bool Parse(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      o->workload = value;
    } else if (arg == "--seed") {
      o->seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (arg == "--seconds") {
      o->seconds = std::strtod(value, &end);
      if (*end != '\0' || !(o->seconds > 0)) return false;
    } else if (arg == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      o->trace = value[0] - '0';
    } else if (arg == "--out-dir") {
      o->out_dir = value;
    } else {
      return false;
    }
  }
  return !o->workload.empty() && o->seconds > 0 && o->trace >= 0;
}

std::string MetricsJson(const RunReport& report, bool trace, bool detailed) {
  std::string out = "{";
  bool first = true;
  auto emit = [&](const MetricSpec& spec) {
    auto it = report.metrics.find(spec.name);
    const double value = it == report.metrics.end() ? 0.0 : it->second.value;
    if (!first) out += ", ";
    first = false;
    out.append("\"").append(spec.name).append("\": {\"value\": ");
    out.append(JsonNumber(value)).append(", \"unit\": \"");
    out.append(spec.unit).append("\"");
    if (detailed) {
      const uint64_t samples =
          it == report.metrics.end() ? 0 : it->second.samples;
      out.append(", \"samples\": ").append(std::to_string(samples));
    }
    out += "}";
  };
  if (trace) {
    for (const MetricSpec& spec : kPerLayer) emit(spec);
  } else {
    for (const MetricSpec& spec : kEndToEnd) emit(spec);
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!Parse(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: htap_bench --workload <name> --seed <n> --seconds "
                 "<s> --trace <0|1> [--out-dir <dir>]\n");
    return 2;
  }
  const std::vector<std::string> env = HytapEnvironment();
  if (!env.empty()) {
    std::fprintf(stderr,
                 "refusing to run: the benchmark measures the engine's "
                 "default knobs, but %s is set\n",
                 env.front().c_str());
    return 2;
  }
  RunReport (*run)(const RunArgs&) = nullptr;
  if (options.workload == "htap_serving") run = RunHtapServing;
  if (options.workload == "olap_scan") run = RunOlapScan;
  if (options.workload == "tuple_fetch") run = RunTupleFetch;
  if (options.workload == "plan_frontier") run = RunPlanFrontier;
  if (run == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }

  Tracer tracer(options.trace == 1);
  RunArgs args;
  args.seed = options.seed;
  args.seconds = options.seconds;
  args.trace = options.trace == 1;
  args.tracer = args.trace ? &tracer : nullptr;
  const auto [steal_before, total_before] = CpuStealJiffies();
  const uint64_t t0 = NowNs();
  RunReport report = run(args);
  const double run_s = double(NowNs() - t0) / 1e9;
  const auto [steal_after, total_after] = CpuStealJiffies();
  const double steal_pct =
      total_after > total_before
          ? 100.0 * double(steal_after - steal_before) /
                double(total_after - total_before)
          : 0.0;

  bool correct = report.attempted > 0;
  for (const auto& [name, passed] : report.checks) correct &= passed;

  mkdir(options.out_dir.c_str(), 0755);
  if (args.trace) {
    tracer.WriteJson(options.out_dir + "/spans-" + options.workload + ".json");
  }
  std::string detail = "{\"detail\": {\"workload\": \"" + options.workload +
                       "\", \"seed\": " + std::to_string(options.seed) +
                       ", \"seconds\": " + JsonNumber(options.seconds) +
                       ", \"trace\": " + std::to_string(options.trace) +
                       ", \"run_s\": " + JsonNumber(run_s) +
                       ", \"host_steal_pct\": " + JsonNumber(steal_pct) +
                       ", \"nproc\": " +
                       std::to_string(std::thread::hardware_concurrency()) +
                       ", \"cpu_model\": \"" + JsonEscape(CpuModel()) +
                       "\", \"git_sha\": \"" HTAP_BENCH_GIT_SHA
                       "\", \"build_type\": \"" HTAP_BENCH_BUILD_TYPE
                       "\", \"hytap_env_set\": false, \"checks\": {";
  bool first = true;
  for (const auto& [name, passed] : report.checks) {
    detail += std::string(first ? "" : ", ") + "\"" + name +
              "\": " + (passed ? "true" : "false");
    first = false;
  }
  detail += "}, \"facts\": {";
  first = true;
  for (const auto& [name, value] : report.facts) {
    detail += std::string(first ? "" : ", ") + "\"" + name +
              "\": " + JsonNumber(value);
    first = false;
  }
  detail += "}, \"metrics\": " + MetricsJson(report, args.trace, true) + "}}";
  const std::string path = options.out_dir + "/result-" + options.workload +
                           "-seed" + std::to_string(options.seed) + "-trace" +
                           std::to_string(options.trace) + ".json";
  if (FILE* f = std::fopen(path.c_str(), "w")) {
    std::fprintf(f, "%s\n", detail.c_str());
    std::fclose(f);
  }
  std::printf("%s\n", detail.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              (unsigned long long)report.attempted,
              (unsigned long long)report.failed,
              MetricsJson(report, args.trace, false).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
