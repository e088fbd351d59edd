#include "selection/selectors.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/assert.h"
#include "solver/branch_and_bound.h"
#include "solver/simplex.h"

namespace hytap {

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Per-byte linear coefficient theta_i = S_i + beta * (1 - 2 y_i):
/// x_i = 1 improves the objective iff theta_i + alpha < 0 (paper eq. (9)).
std::vector<double> ThetaCoefficients(const SelectionProblem& problem,
                                      const CostModel& model) {
  const size_t n = problem.workload->column_count();
  std::vector<double> theta(model.S());
  if (!problem.current.empty() && problem.beta != 0.0) {
    HYTAP_ASSERT(problem.current.size() == n, "current allocation arity");
    for (size_t i = 0; i < n; ++i) {
      theta[i] += problem.beta * (1.0 - 2.0 * double(problem.current[i]));
    }
  }
  return theta;
}

bool IsPinned(const SelectionProblem& problem, size_t i) {
  return !problem.pinned.empty() && problem.pinned[i] != 0;
}

double PinnedBytes(const SelectionProblem& problem) {
  if (problem.pinned.empty()) return 0.0;
  double bytes = 0.0;
  for (size_t i = 0; i < problem.pinned.size(); ++i) {
    if (problem.pinned[i]) bytes += problem.workload->column_sizes[i];
  }
  return bytes;
}

}  // namespace

SelectionProblem SelectionProblem::FromRelativeBudget(const Workload& workload,
                                                      ScanCostParams params,
                                                      double w) {
  HYTAP_ASSERT(w >= 0.0 && w <= 1.0, "relative budget must be in [0, 1]");
  SelectionProblem problem;
  problem.workload = &workload;
  problem.params = params;
  problem.budget_bytes = w * workload.TotalBytes();
  return problem;
}

SelectionResult FinishResult(const SelectionProblem& problem,
                             const CostModel& model,
                             std::vector<uint8_t> in_dram) {
  const size_t n = problem.workload->column_count();
  HYTAP_ASSERT(in_dram.size() == n, "allocation arity mismatch");
  for (size_t i = 0; i < n; ++i) {
    if (IsPinned(problem, i)) in_dram[i] = 1;
  }
  SelectionResult result;
  result.scan_cost = model.ScanCost(in_dram);
  result.dram_bytes = model.MemoryUsed(in_dram);
  result.objective = result.scan_cost;
  result.all_dram_cost = model.AllDramCost();
  if (!problem.current.empty()) {
    result.current_cost = model.ScanCost(problem.current);
    const std::vector<double>& s = model.S();
    for (size_t i = 0; i < n; ++i) {
      if (in_dram[i] == problem.current[i]) continue;
      const double size = problem.workload->column_sizes[i];
      if (problem.beta != 0.0) result.objective += problem.beta * size;
      result.moves.emplace_back(i, size * std::abs(s[i]));
    }
  }
  result.in_dram = std::move(in_dram);
  return result;
}

std::vector<uint8_t> KnapsackView::Expand(
    const std::vector<uint8_t>& take) const {
  HYTAP_ASSERT(take.size() == items.size(), "take arity mismatch");
  std::vector<uint8_t> in_dram(base);
  for (size_t k = 0; k < items.size(); ++k) {
    if (take[k]) in_dram[item_columns[k]] = 1;
  }
  return in_dram;
}

KnapsackView BuildKnapsackView(const SelectionProblem& problem,
                               const CostModel& model) {
  const std::vector<double> theta = ThetaCoefficients(problem, model);
  const size_t n = problem.workload->column_count();
  const double pinned_bytes = PinnedBytes(problem);
  HYTAP_ASSERT(pinned_bytes <= problem.budget_bytes + 1e-9,
               "pinned columns exceed the DRAM budget");

  KnapsackView view;
  view.capacity = problem.budget_bytes - pinned_bytes;
  view.base.assign(n, 0);
  for (size_t i = 0; i < n; ++i) {
    if (IsPinned(problem, i)) view.base[i] = 1;
  }
  for (size_t i = 0; i < n; ++i) {
    if (IsPinned(problem, i)) continue;
    const double profit = -problem.workload->column_sizes[i] * theta[i];
    if (profit > 0.0) {
      view.items.push_back(
          KnapsackItem{profit, problem.workload->column_sizes[i]});
      view.item_columns.push_back(i);
    }
  }

  view.base_objective = model.ScanCost(view.base);
  if (!problem.current.empty() && problem.beta != 0.0) {
    for (size_t i = 0; i < n; ++i) {
      if (view.base[i] != problem.current[i]) {
        view.base_objective +=
            problem.beta * problem.workload->column_sizes[i];
      }
    }
  }

  // Dantzig bound: fill by profit density, fractional head on the first item
  // that no longer fits. This is exactly the LP-relaxation (4) optimum
  // restricted to the profitable items, without the O(N^2) dense simplex.
  std::vector<size_t> order(view.items.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const double da = view.items[a].profit * view.items[b].weight;
    const double db = view.items[b].profit * view.items[a].weight;
    if (da != db) return da > db;
    return a < b;
  });
  double remaining = view.capacity;
  for (size_t k : order) {
    if (remaining <= 0.0) break;
    const KnapsackItem& item = view.items[k];
    if (item.weight <= remaining) {
      view.profit_upper_bound += item.profit;
      remaining -= item.weight;
    } else {
      view.profit_upper_bound += item.profit * (remaining / item.weight);
      break;
    }
  }
  return view;
}

SelectionResult SelectIntegerOptimal(const SelectionProblem& problem,
                                     uint64_t max_nodes) {
  const auto start = Clock::now();
  CostModel model(*problem.workload, problem.params);
  const double model_seconds = Seconds(start);
  const KnapsackView view = BuildKnapsackView(problem, model);
  KnapsackSolution knapsack =
      SolveKnapsack(view.items, view.capacity, max_nodes);

  SelectionResult result =
      FinishResult(problem, model, view.Expand(knapsack.take));
  result.solver_nodes = knapsack.nodes;
  result.solver_pruned = knapsack.pruned;
  result.optimal = knapsack.optimal;
  result.lp_bound = view.base_objective - knapsack.lp_bound;
  if (result.lp_bound != 0.0) {
    result.gap = std::max(
        0.0, (result.objective - result.lp_bound) / std::abs(result.lp_bound));
  }
  result.solve_seconds = Seconds(start);
  result.model_seconds = model_seconds;
  return result;
}

SelectionResult SelectContinuousPenalty(const SelectionProblem& problem,
                                        double alpha) {
  const auto start = Clock::now();
  HYTAP_ASSERT(alpha >= 0.0, "penalty alpha must be non-negative");
  CostModel model(*problem.workload, problem.params);
  const std::vector<double> theta = ThetaCoefficients(problem, model);
  const size_t n = problem.workload->column_count();
  std::vector<uint8_t> in_dram(n, 0);
  for (size_t i = 0; i < n; ++i) {
    if (theta[i] + alpha < 0.0) in_dram[i] = 1;
  }
  SelectionResult result = FinishResult(problem, model, std::move(in_dram));
  result.solve_seconds = Seconds(start);
  return result;
}

std::vector<uint8_t> ExplicitFrontier::AllocationFor(
    double budget_bytes, size_t n, bool filling,
    const std::vector<double>& sizes) const {
  std::vector<uint8_t> in_dram(n, 0);
  double used = 0.0;
  for (const FrontierPoint& point : points) {
    const double size = sizes[point.column];
    if (used + size <= budget_bytes + 1e-9) {
      in_dram[point.column] = 1;
      used += size;
    } else if (!filling) {
      break;  // strict prefix of the performance order
    }
    // With filling (Remark 2), later (smaller) columns may still fit.
  }
  return in_dram;
}

ExplicitFrontier ComputeExplicitFrontier(const SelectionProblem& problem) {
  CostModel model(*problem.workload, problem.params);
  const std::vector<double> theta = ThetaCoefficients(problem, model);
  const size_t n = problem.workload->column_count();

  // Performance order o_i: pinned columns first (alpha = +inf), then columns
  // by descending critical alpha_i = -theta_i, keeping only those whose
  // selection can ever improve the objective (alpha_i > 0).
  std::vector<uint32_t> order;
  order.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (IsPinned(problem, i) || theta[i] < 0.0) {
      order.push_back(static_cast<uint32_t>(i));
    }
  }
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    const bool pa = IsPinned(problem, a);
    const bool pb = IsPinned(problem, b);
    if (pa != pb) return pa;
    return theta[a] < theta[b];
  });

  ExplicitFrontier frontier;
  frontier.points.reserve(order.size());
  double used = 0.0;
  double cost = model.AllSecondaryCost();
  // Baseline objective: with nothing in DRAM every currently-DRAM column
  // (y_i = 1) pays the eviction move cost.
  double moves = 0.0;
  if (!problem.current.empty() && problem.beta != 0.0) {
    for (size_t i = 0; i < n; ++i) {
      if (problem.current[i]) {
        moves += problem.beta * problem.workload->column_sizes[i];
      }
    }
  }
  for (uint32_t c : order) {
    const double a = problem.workload->column_sizes[c];
    used += a;
    cost += a * model.S()[c];
    if (!problem.current.empty() && problem.beta != 0.0) {
      // Selecting c either avoids its eviction cost (y=1) or adds a load
      // cost (y=0).
      moves += problem.beta * a * (problem.current[c] ? -1.0 : 1.0);
    }
    frontier.points.push_back(FrontierPoint{
        c, IsPinned(problem, c) ? std::numeric_limits<double>::infinity()
                                : -theta[c],
        used, cost, cost + moves});
  }
  return frontier;
}

SelectionResult SelectExplicit(const SelectionProblem& problem,
                               bool filling) {
  const auto start = Clock::now();
  CostModel model(*problem.workload, problem.params);
  const double model_seconds = Seconds(start);
  ExplicitFrontier frontier = ComputeExplicitFrontier(problem);
  std::vector<uint8_t> in_dram = frontier.AllocationFor(
      problem.budget_bytes, problem.workload->column_count(), filling,
      problem.workload->column_sizes);
  SelectionResult result = FinishResult(problem, model, std::move(in_dram));
  result.solve_seconds = Seconds(start);
  result.model_seconds = model_seconds;
  return result;
}

SelectionResult SelectGreedyMarginal(const SelectionProblem& problem) {
  const auto start = Clock::now();
  CostModel model(*problem.workload, problem.params);
  const double model_seconds = Seconds(start);
  const std::vector<double> theta = ThetaCoefficients(problem, model);
  const size_t n = problem.workload->column_count();
  std::vector<uint8_t> in_dram(n, 0);
  double used = 0.0;
  for (size_t i = 0; i < n; ++i) {
    if (IsPinned(problem, i)) {
      in_dram[i] = 1;
      used += problem.workload->column_sizes[i];
    }
  }
  // Remark 3: repeatedly add the column with the best additional performance
  // per additional DRAM byte. For the separable model the gain per byte of
  // column i is the constant -theta_i (scan-cost delta plus the flipped move
  // term), so the repeated argmax is a single pass over the columns sorted by
  // theta ascending (ties by index, matching the old first-index argmax).
  // A column skipped for space never fits again — `used` only grows — so the
  // fill-with-skip scan reproduces the historical O(N^2) loop exactly.
  std::vector<uint32_t> order;
  order.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (!IsPinned(problem, i) && theta[i] < 0.0) {
      order.push_back(uint32_t(i));
    }
  }
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    if (theta[a] != theta[b]) return theta[a] < theta[b];
    return a < b;
  });
  for (uint32_t i : order) {
    const double a = problem.workload->column_sizes[i];
    if (used + a > problem.budget_bytes + 1e-9) continue;
    in_dram[i] = 1;
    used += a;
  }
  SelectionResult result = FinishResult(problem, model, std::move(in_dram));
  result.solve_seconds = Seconds(start);
  result.model_seconds = model_seconds;
  return result;
}

SelectionResult SelectContinuousSimplex(const SelectionProblem& problem,
                                        double alpha) {
  const auto start = Clock::now();
  CostModel model(*problem.workload, problem.params);
  const std::vector<double> theta = ThetaCoefficients(problem, model);
  const size_t n = problem.workload->column_count();
  // Problem (5)/(6) over x in [0,1]^N. For binary y the reallocation term is
  // linear in x (|x-0| = x, |x-1| = 1-x), so no auxiliary z variables are
  // needed; the objective coefficient of x_i is a_i * (theta_i + alpha).
  LpProblem lp;
  lp.objective.resize(n);
  for (size_t i = 0; i < n; ++i) {
    lp.objective[i] = problem.workload->column_sizes[i] * (theta[i] + alpha);
    if (IsPinned(problem, i)) {
      // Pinning: make selection arbitrarily attractive.
      lp.objective[i] = -1e18;
    }
  }
  lp.constraints.assign(n, std::vector<double>(n, 0.0));
  lp.rhs.assign(n, 1.0);
  for (size_t i = 0; i < n; ++i) lp.constraints[i][i] = 1.0;  // x_i <= 1
  LpSolution lp_solution = SolveLp(lp);
  HYTAP_ASSERT(lp_solution.feasible && lp_solution.bounded,
               "penalty LP must be feasible and bounded");
  std::vector<uint8_t> in_dram(n, 0);
  for (size_t i = 0; i < n; ++i) {
    // Lemma 1 guarantees integrality; tolerate float fuzz.
    in_dram[i] = lp_solution.x[i] > 0.5 ? 1 : 0;
  }
  SelectionResult result = FinishResult(problem, model, std::move(in_dram));
  result.solve_seconds = Seconds(start);
  return result;
}

RelaxationResult SolveRelaxationSimplex(const SelectionProblem& problem) {
  CostModel model(*problem.workload, problem.params);
  const size_t n = problem.workload->column_count();
  // LP (4) s.t. (3): pinned columns are substituted out (x = 1 fixed).
  double budget = problem.budget_bytes - PinnedBytes(problem);
  HYTAP_ASSERT(budget >= -1e-9, "pinned columns exceed the DRAM budget");
  std::vector<size_t> free_columns;
  for (size_t i = 0; i < n; ++i) {
    if (!IsPinned(problem, i)) free_columns.push_back(i);
  }
  LpProblem lp;
  const size_t k = free_columns.size();
  lp.objective.resize(k);
  lp.constraints.assign(k + 1, std::vector<double>(k, 0.0));
  lp.rhs.assign(k + 1, 1.0);
  for (size_t j = 0; j < k; ++j) {
    const size_t i = free_columns[j];
    lp.objective[j] = problem.workload->column_sizes[i] * model.S()[i];
    lp.constraints[0][j] = problem.workload->column_sizes[i];
    lp.constraints[j + 1][j] = 1.0;
  }
  lp.rhs[0] = std::max(0.0, budget);
  LpSolution lp_solution = SolveLp(lp);
  RelaxationResult result;
  result.feasible = lp_solution.feasible && lp_solution.bounded;
  if (!result.feasible) return result;
  result.x.assign(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    if (IsPinned(problem, i)) result.x[i] = 1.0;
  }
  for (size_t j = 0; j < k; ++j) result.x[free_columns[j]] = lp_solution.x[j];
  result.scan_cost = model.ScanCostContinuous(result.x);
  for (size_t i = 0; i < n; ++i) {
    result.dram_bytes += result.x[i] * problem.workload->column_sizes[i];
  }
  return result;
}

}  // namespace hytap
