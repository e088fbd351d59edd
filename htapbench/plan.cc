// plan_frontier: the placement planner on a multi-tenant workload model.
//
// The model replicates the five Table I profiles (BSEG, ACDOCA, VBAP, BKPF,
// COEP) kReplicas times with distinct seeds — ~82k columns, ~16k templates.
// One round computes the explicit Pareto frontier, selects placements at a
// ladder of relative budgets, runs the greedy selector, then drifts the
// template frequencies (seeded) and re-plans with SelectWithReallocation
// against the current placement. Rounds repeat until `seconds` have
// elapsed; every call is one timed recommendation. Round 0 is the
// deterministic prefix: its plan costs, bounds and moves are checked and
// reported. The exact branch-and-bound selector runs only on one tenant set
// (~1.3k columns), as a certificate for the explicit solution. Set-up
// generates the model and parses it back from the .workload text format.

#include <cmath>

#include "common/random.h"
#include "io/workload_io.h"
#include "selection/reallocation.h"
#include "selection/selectors.h"
#include "workload/enterprise.h"
#include "workloads.h"

namespace htapbench {

using namespace hytap;

namespace {

constexpr size_t kReplicas = 64;
constexpr double kLadder[] = {0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.8};
/// Budgets of the branch-and-bound certificate and its node cap per solve.
constexpr double kCertificateLadder[] = {0.05, 0.1, 0.2, 0.3};
constexpr uint64_t kBnbMaxNodes = 2'000'000;
constexpr double kReallocBudget = 0.3;
/// Move cost per byte relative to c_mm (the §III-D beta).
constexpr double kBeta = 0.5;
/// Cost-model units: c_mm = 1 unit per byte is taken as 0.1 ns per byte
/// (a 10 GB/s DRAM scan), which turns F(x) into simulated scan time.
constexpr double kNsPerUnit = 0.1;

ScanCostParams Params() { return ScanCostParams{1.0, 150.0}; }

uint64_t TenantSeed(uint64_t seed, size_t replica, size_t profile) {
  return seed * 1000003ull + replica * 101ull + profile + 1;
}

/// Concatenates `part` into `model`, shifting its column ids.
void Append(const Workload& part, Workload* model) {
  const uint32_t offset = uint32_t(model->column_count());
  model->column_sizes.insert(model->column_sizes.end(),
                             part.column_sizes.begin(),
                             part.column_sizes.end());
  model->selectivities.insert(model->selectivities.end(),
                              part.selectivities.begin(),
                              part.selectivities.end());
  for (QueryTemplate q : part.queries) {
    for (uint32_t& c : q.columns) c += offset;
    model->queries.push_back(std::move(q));
  }
}

Workload BuildModel(uint64_t seed, size_t replicas) {
  const std::vector<EnterpriseProfile> profiles = SapErpProfiles();
  Workload model;
  for (size_t r = 0; r < replicas; ++r) {
    for (size_t p = 0; p < profiles.size(); ++p) {
      Append(GenerateEnterpriseWorkload(profiles[p], TenantSeed(seed, r, p)),
             &model);
    }
  }
  return model;
}

/// Seeded drift of the template mix: each frequency scaled by a factor in
/// [1/2, 2], log-uniform.
Workload Drift(const Workload& model, Rng& rng) {
  Workload drifted = model;
  for (QueryTemplate& q : drifted.queries) {
    q.frequency *= std::exp(rng.NextDouble(-std::log(2.0), std::log(2.0)));
  }
  return drifted;
}

double TotalFrequency(const Workload& model) {
  double total = 0.0;
  for (const QueryTemplate& q : model.queries) total += q.frequency;
  return total;
}

struct PassResult {
  std::vector<double> call_ms;  // every recommendation
  std::vector<double> model_ms, frontier_ms, explicit_ms, greedy_ms,
      realloc_ms;
  // Round 0 (deterministic prefix).
  std::vector<SelectionResult> ladder;
  ExplicitFrontier frontier;
  double moved_bytes = 0.0;
  bool budgets_ok = true;
  uint64_t rounds = 0;
  double wall_s = 0.0;
  ScaledCpuClock cpu;  // of the pass
};

template <typename Fn>
auto Timed(Tracer* tracer, const char* name, uint64_t request,
           std::vector<double>* bucket, PassResult* r, Fn&& fn) {
  const uint64_t t0 = NowNs();
  auto result = [&] {
    ScopedSpan span(tracer, name, request);
    return fn();
  }();
  const double ms = double(NowNs() - t0) / 1e6;
  bucket->push_back(ms);
  r->call_ms.push_back(ms);
  r->cpu.Tick();
  return result;
}

PassResult RunPass(const Workload& base, uint64_t seed, double seconds,
                   Tracer* tracer) {
  PassResult r;
  Rng drift_rng(seed * 0x9e3779b97f4a7c15ull + 5);
  Workload model = base;
  const uint64_t start = NowNs();
  uint64_t request = 0;
  while (r.rounds == 0 || NowNs() - start < uint64_t(seconds * 1e9)) {
    const bool prefix = r.rounds == 0;
    ExplicitFrontier frontier =
        Timed(tracer, "selection.frontier", ++request, &r.frontier_ms, &r, [&] {
          return ComputeExplicitFrontier(
              SelectionProblem::FromRelativeBudget(model, Params(), 0.5));
        });
    std::vector<uint8_t> current;
    for (double w : kLadder) {
      const SelectionProblem problem =
          SelectionProblem::FromRelativeBudget(model, Params(), w);
      SelectionResult sel =
          Timed(tracer, "selection.explicit", ++request, &r.explicit_ms, &r,
                [&] { return SelectExplicit(problem); });
      r.model_ms.push_back(sel.model_seconds * 1e3);
      r.budgets_ok &= sel.dram_bytes <= problem.budget_bytes;
      if (w == kReallocBudget) current = sel.in_dram;
      if (prefix) r.ladder.push_back(std::move(sel));
    }
    {
      const SelectionProblem problem =
          SelectionProblem::FromRelativeBudget(model, Params(), kReallocBudget);
      SelectionResult greedy =
          Timed(tracer, "selection.greedy", ++request, &r.greedy_ms, &r,
                [&] { return SelectGreedyMarginal(problem); });
      r.budgets_ok &= greedy.dram_bytes <= problem.budget_bytes;
    }
    model = Drift(model, drift_rng);
    SelectionProblem problem =
        SelectionProblem::FromRelativeBudget(model, Params(), kReallocBudget);
    problem.current = current;
    problem.beta = kBeta;
    ReallocationOptions options;
    options.use_portfolio = false;
    ReallocationResult realloc =
        Timed(tracer, "selection.realloc", ++request, &r.realloc_ms, &r,
              [&] { return SelectWithReallocation(problem, options); });
    r.budgets_ok &= realloc.selection.dram_bytes <= problem.budget_bytes;
    if (prefix) {
      r.frontier = std::move(frontier);
      r.moved_bytes = realloc.planned_move_bytes;
    }
    ++r.rounds;
  }
  r.wall_s = double(NowNs() - start) / 1e9;
  r.cpu.Finish();
  return r;
}

}  // namespace

RunReport RunPlanFrontier(const RunArgs& args) {
  RunReport report;
  Workload model;
  // Set-up builds the tenant models and loads them the way a planner loads
  // a recorded workload: through the .workload text format.
  bool loaded = true;
  auto build = [&](Tracer* tracer, ScaledCpuClock* clock) {
    const uint64_t t0 = NowNs();
    std::string text;
    {
      ScopedSpan span(tracer, "workload.generate");
      text = SerializeWorkload(BuildModel(args.seed, kReplicas));
    }
    const uint64_t t1 = NowNs();
    if (clock != nullptr) clock->Tick();
    {
      ScopedSpan span(tracer, "io.workload_parse");
      StatusOr<Workload> parsed = ParseWorkload(text);
      loaded &= parsed.ok();
      if (parsed.ok()) model = std::move(*parsed);
    }
    const uint64_t t2 = NowNs();
    report.Set("workload.generate_s", double(t1 - t0) / 1e9, "s");
    report.Set("io.workload_parse_ms", double(t2 - t1) / 1e6, "ms");
  };
  if (args.trace) {
    build(args.tracer, nullptr);
  } else {
    MeasureSetup(kSetupRuns, &report,
                 [&](ScaledCpuClock& clock) { build(nullptr, &clock); });
  }
  report.Check("workload_loads", loaded && model.column_count() > 0);
  report.facts["columns"] = double(model.column_count());
  report.facts["templates"] = double(model.query_count());

  const PassResult base = RunPass(model, args.seed, args.seconds, nullptr);
  report.attempted = base.call_ms.size();
  report.facts["rounds"] = double(base.rounds);

  // Output checks on the deterministic round 0.
  report.Check("placements_fit_budget", base.budgets_ok);
  bool monotone = !base.frontier.points.empty();
  for (size_t i = 1; i < base.frontier.points.size(); ++i) {
    monotone &= base.frontier.points[i].dram_bytes >=
                    base.frontier.points[i - 1].dram_bytes &&
                base.frontier.points[i].scan_cost <=
                    base.frontier.points[i - 1].scan_cost;
  }
  report.Check("frontier_cost_monotone", monotone);
  const CostModel cost_model(model, Params());
  double cost_ratio = 0.0;
  std::vector<double> per_query_us;
  const double total_frequency = TotalFrequency(model);
  for (size_t i = 0; i < base.ladder.size(); ++i) {
    const SelectionProblem problem =
        SelectionProblem::FromRelativeBudget(model, Params(), kLadder[i]);
    const KnapsackView view = BuildKnapsackView(problem, cost_model);
    cost_ratio += base.ladder[i].scan_cost / view.ObjectiveLowerBound();
    per_query_us.push_back(base.ladder[i].scan_cost / total_frequency *
                           kNsPerUnit / 1e3);
  }
  // Certificate: exact B&B on one tenant set is never worse than explicit.
  // Searches that hit the node cap without proving optimality are counted
  // (solver.bnb_unproven), not failed: they still return a feasible
  // incumbent that must not lose to the explicit solution.
  const Workload tenant = BuildModel(args.seed, 1);
  std::vector<double> bnb_ms;
  uint64_t bnb_nodes = 0, bnb_unproven = 0;
  bool certified = true;
  for (double w : kCertificateLadder) {
    const SelectionProblem problem =
        SelectionProblem::FromRelativeBudget(tenant, Params(), w);
    const uint64_t t0 = NowNs();
    const SelectionResult exact = SelectIntegerOptimal(problem, kBnbMaxNodes);
    bnb_ms.push_back(double(NowNs() - t0) / 1e6);
    bnb_nodes += exact.solver_nodes;
    bnb_unproven += exact.optimal ? 0 : 1;
    const SelectionResult explicit_sol = SelectExplicit(problem);
    certified &= exact.dram_bytes <= problem.budget_bytes &&
                 exact.objective <= explicit_sol.objective * (1 + 1e-12);
  }
  report.Check("bnb_not_worse_than_explicit", certified);
  report.failed = certified && base.budgets_ok && monotone ? 0 : 1;
  report.facts["certificate_columns"] = double(tenant.column_count());

  if (!args.trace) {
    ReportQps(base.call_ms.size(), base.cpu, &report);
    report.facts["op_p50_ms"] = Percentile(base.call_ms, 0.5);
    report.Set("sim_us", Mean(per_query_us), "us", per_query_us.size());
    report.Set("rss_mb", ResidentMb(), "MB");
    return report;
  }
  report.Set("selection.plan_cost_ratio", cost_ratio, "ratio",
             base.ladder.size());
  report.Set("selection.frontier_points", double(base.frontier.points.size()),
             "count");
  report.Set("selection.moved_mb", base.moved_bytes / 1e6, "MB");
  report.Set("solver.bnb_ms", Mean(bnb_ms), "ms", bnb_ms.size());
  report.Set("solver.bnb_nodes", double(bnb_nodes), "count");
  report.Set("solver.bnb_unproven", double(bnb_unproven), "count");
  report.Set("error_ratio", double(report.failed) / double(report.attempted),
             "ratio");
  const PassResult tr = RunPass(model, args.seed, args.seconds, args.tracer);
  report.Set("selection.model_ms", Mean(tr.model_ms), "ms", tr.model_ms.size());
  report.Set("selection.frontier_ms", Mean(tr.frontier_ms), "ms",
             tr.frontier_ms.size());
  report.Set("selection.explicit_ms", Mean(tr.explicit_ms), "ms",
             tr.explicit_ms.size());
  report.Set("selection.greedy_ms", Mean(tr.greedy_ms), "ms",
             tr.greedy_ms.size());
  report.Set("selection.realloc_ms", Mean(tr.realloc_ms), "ms",
             tr.realloc_ms.size());
  report.Set("op_p50_ms", Percentile(base.call_ms, 0.5), "ms",
             base.call_ms.size());
  report.Set("op_p90_ms", Percentile(base.call_ms, 0.9), "ms",
             base.call_ms.size());
  report.Set("op_p99_ms", Percentile(base.call_ms, 0.99), "ms",
             base.call_ms.size());
  const double base_mean = base.wall_s / double(base.call_ms.size());
  const double traced_mean = tr.wall_s / double(tr.call_ms.size());
  report.Set("trace_overhead_pct",
             100.0 * (traced_mean - base_mean) / base_mean, "%");
  return report;
}

}  // namespace htapbench
