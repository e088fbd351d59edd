#include "selection/selectors.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "workload/example1.h"

namespace hytap {
namespace {

Workload TinyWorkload() {
  Workload w;
  w.column_sizes = {10.0, 20.0, 30.0};
  w.selectivities = {0.1, 0.5, 0.01};
  QueryTemplate q1;
  q1.columns = {0, 1};
  q1.frequency = 2.0;
  QueryTemplate q2;
  q2.columns = {1, 2};
  q2.frequency = 1.0;
  w.queries = {q1, q2};
  return w;
}

TEST(SelectionProblemTest, RelativeBudget) {
  Workload w = TinyWorkload();
  auto p = SelectionProblem::FromRelativeBudget(w, ScanCostParams{}, 0.5);
  EXPECT_DOUBLE_EQ(p.budget_bytes, 30.0);
}

TEST(IntegerSelectorTest, FullBudgetSelectsAllUsed) {
  Workload w = TinyWorkload();
  auto p = SelectionProblem::FromRelativeBudget(w, ScanCostParams{1, 10}, 1.0);
  auto result = SelectIntegerOptimal(p);
  EXPECT_EQ(result.in_dram, (std::vector<uint8_t>{1, 1, 1}));
  EXPECT_TRUE(result.optimal);
}

TEST(IntegerSelectorTest, ZeroBudgetSelectsNothing) {
  Workload w = TinyWorkload();
  auto p = SelectionProblem::FromRelativeBudget(w, ScanCostParams{1, 10}, 0.0);
  auto result = SelectIntegerOptimal(p);
  EXPECT_EQ(result.in_dram, (std::vector<uint8_t>{0, 0, 0}));
  EXPECT_DOUBLE_EQ(result.dram_bytes, 0.0);
}

TEST(IntegerSelectorTest, PrefersHighUtilityDensity) {
  // Budget 30: candidates {0:(180 profit,10), 1:(37.8,20), 2:(270,30)}.
  // Options: {0,1} profit 217.8, {2} profit 270 -> pick {2}.
  Workload w = TinyWorkload();
  SelectionProblem p;
  p.workload = &w;
  p.params = {1.0, 10.0};
  p.budget_bytes = 30.0;
  auto result = SelectIntegerOptimal(p);
  EXPECT_EQ(result.in_dram, (std::vector<uint8_t>{0, 0, 1}));
}

TEST(IntegerSelectorTest, NeverUsedColumnsEvictedFirst) {
  Workload w = TinyWorkload();
  w.column_sizes.push_back(1000.0);  // never referenced
  w.selectivities.push_back(0.5);
  auto p = SelectionProblem::FromRelativeBudget(w, ScanCostParams{1, 10}, 1.0);
  auto result = SelectIntegerOptimal(p);
  EXPECT_EQ(result.in_dram[3], 0);  // plenty of budget, still evicted
}

TEST(IntegerSelectorTest, PinningForcesResidence) {
  Workload w = TinyWorkload();
  w.column_sizes.push_back(5.0);  // unused but pinned
  w.selectivities.push_back(0.5);
  SelectionProblem p;
  p.workload = &w;
  p.params = {1.0, 10.0};
  p.budget_bytes = 10.0;
  p.pinned = {0, 0, 0, 1};
  auto result = SelectIntegerOptimal(p);
  EXPECT_EQ(result.in_dram[3], 1);
  // Remaining budget (5) fits nothing else but col 0 needs 10.
  EXPECT_EQ(result.in_dram[0], 0);
}

TEST(ContinuousPenaltyTest, AlphaZeroKeepsAllUsedColumns) {
  Workload w = TinyWorkload();
  SelectionProblem p;
  p.workload = &w;
  p.params = {1.0, 10.0};
  auto result = SelectContinuousPenalty(p, 0.0);
  EXPECT_EQ(result.in_dram, (std::vector<uint8_t>{1, 1, 1}));
}

TEST(ContinuousPenaltyTest, HugeAlphaEvictsEverything) {
  Workload w = TinyWorkload();
  SelectionProblem p;
  p.workload = &w;
  p.params = {1.0, 10.0};
  auto result = SelectContinuousPenalty(p, 1e12);
  EXPECT_EQ(result.in_dram, (std::vector<uint8_t>{0, 0, 0}));
}

TEST(ContinuousPenaltyTest, MonotoneInAlpha) {
  // Remark 1: allocations are nested as alpha decreases.
  Workload w = GenerateExample1({});
  SelectionProblem p;
  p.workload = &w;
  p.params = {1.0, 100.0};
  std::vector<uint8_t> previous(w.column_count(), 1);
  for (double alpha : {0.0, 1.0, 10.0, 100.0, 1000.0, 1e6}) {
    auto result = SelectContinuousPenalty(p, alpha);
    for (size_t i = 0; i < w.column_count(); ++i) {
      // Larger alpha can only evict more.
      EXPECT_LE(result.in_dram[i], previous[i]) << "alpha=" << alpha;
    }
    previous = result.in_dram;
  }
}

TEST(ExplicitFrontierTest, PointsAscendInMemoryAndDescendInCost) {
  Workload w = GenerateExample1({});
  SelectionProblem p;
  p.workload = &w;
  p.params = {1.0, 100.0};
  auto frontier = ComputeExplicitFrontier(p);
  ASSERT_FALSE(frontier.points.empty());
  for (size_t k = 1; k < frontier.points.size(); ++k) {
    EXPECT_GT(frontier.points[k].dram_bytes,
              frontier.points[k - 1].dram_bytes);
    EXPECT_LT(frontier.points[k].scan_cost,
              frontier.points[k - 1].scan_cost);
    // Critical alphas are non-increasing along the performance order.
    EXPECT_LE(frontier.points[k].alpha, frontier.points[k - 1].alpha);
  }
}

TEST(ExplicitSelectorTest, MatchesContinuousPenaltySweep) {
  // Theorem 2: the explicit order reproduces the penalty solutions.
  Workload w = GenerateExample1({});
  SelectionProblem p;
  p.workload = &w;
  p.params = {1.0, 100.0};
  auto frontier = ComputeExplicitFrontier(p);
  for (size_t k : {size_t{0}, frontier.points.size() / 2,
                   frontier.points.size() - 1}) {
    // Alpha just below the k-th critical value selects exactly the prefix
    // through k.
    const double alpha = frontier.points[k].alpha * (1.0 - 1e-9);
    auto penalty = SelectContinuousPenalty(p, alpha);
    size_t selected = 0;
    for (uint8_t b : penalty.in_dram) selected += b;
    EXPECT_EQ(selected, k + 1) << "k=" << k;
    for (size_t j = 0; j <= k; ++j) {
      EXPECT_EQ(penalty.in_dram[frontier.points[j].column], 1);
    }
  }
}

TEST(ExplicitSelectorTest, FillingUsesLeftoverBudget) {
  // Construct: first column huge, rest small; prefix-only stops at the huge
  // column, filling packs the small ones.
  Workload w;
  w.column_sizes = {100.0, 10.0, 10.0};
  w.selectivities = {0.9, 0.9, 0.9};
  QueryTemplate q1{{0}, 100.0};  // column 0 most valuable
  QueryTemplate q2{{1}, 10.0};
  QueryTemplate q3{{2}, 9.0};
  w.queries = {q1, q2, q3};
  SelectionProblem p;
  p.workload = &w;
  p.params = {1.0, 10.0};
  p.budget_bytes = 25.0;  // column 0 does not fit
  auto strict = SelectExplicit(p, /*filling=*/false);
  EXPECT_EQ(strict.in_dram, (std::vector<uint8_t>{0, 0, 0}));
  auto filled = SelectExplicit(p, /*filling=*/true);
  EXPECT_EQ(filled.in_dram, (std::vector<uint8_t>{0, 1, 1}));
}

TEST(ExplicitSelectorTest, NestedAllocationsAcrossBudgets) {
  // Remark 1 for budget sweeps (without filling).
  Workload w = GenerateExample1({});
  std::vector<uint8_t> previous(w.column_count(), 0);
  for (double budget_w : {1.0, 0.8, 0.6, 0.4, 0.2, 0.05, 0.0}) {
    auto p = SelectionProblem::FromRelativeBudget(w, ScanCostParams{1, 100},
                                                  budget_w);
    auto result = SelectExplicit(p, /*filling=*/false);
    if (budget_w == 1.0) {
      previous = result.in_dram;
      continue;
    }
    for (size_t i = 0; i < w.column_count(); ++i) {
      EXPECT_LE(result.in_dram[i], previous[i]) << "w=" << budget_w;
    }
    previous = result.in_dram;
  }
}

TEST(GreedyMarginalTest, MatchesExplicitOnLinearModel) {
  // For the separable scan-cost model the Remark-3 greedy coincides with the
  // explicit density order (plus filling behavior differences only when a
  // column doesn't fit).
  Workload w = GenerateExample1({});
  auto p = SelectionProblem::FromRelativeBudget(w, ScanCostParams{1, 100},
                                                0.3);
  auto greedy = SelectGreedyMarginal(p);
  auto explicit_sel = SelectExplicit(p, /*filling=*/true);
  CostModel model(w, p.params);
  // Costs must agree to within a hair (identical in the generic case).
  EXPECT_NEAR(greedy.scan_cost, explicit_sel.scan_cost,
              1e-6 * explicit_sel.scan_cost);
}

TEST(ReallocationTest, BetaZeroIgnoresCurrentPlacement) {
  Workload w = GenerateExample1({});
  auto p = SelectionProblem::FromRelativeBudget(w, ScanCostParams{1, 100},
                                                0.4);
  auto base = SelectExplicit(p);
  p.beta = 0.0;
  p.current.assign(w.column_count(), 1);
  auto with_current = SelectExplicit(p);
  EXPECT_EQ(base.in_dram, with_current.in_dram);
}

TEST(ReallocationTest, HighBetaFreezesPlacement) {
  // With beta large, moving anything costs more than any scan gain: the
  // optimizer keeps the current allocation wherever admissible.
  Workload w = GenerateExample1({});
  auto p = SelectionProblem::FromRelativeBudget(w, ScanCostParams{1, 100},
                                                0.4);
  // Current placement: whatever the explicit solver picks at w=0.4.
  auto initial = SelectExplicit(p);
  p.current = initial.in_dram;
  p.beta = 1e12;
  auto frozen = SelectIntegerOptimal(p);
  EXPECT_EQ(frozen.in_dram, initial.in_dram);
}

TEST(ReallocationTest, ModerateBetaLimitsMoves) {
  Workload w = GenerateExample1({});
  auto p0 = SelectionProblem::FromRelativeBudget(w, ScanCostParams{1, 100},
                                                 0.2);
  auto initial = SelectExplicit(p0);
  // Budget grows to 0.6: without reallocation costs many columns move.
  auto p1 = SelectionProblem::FromRelativeBudget(w, ScanCostParams{1, 100},
                                                 0.6);
  auto free_moves = SelectIntegerOptimal(p1);
  p1.current = initial.in_dram;
  p1.beta = 50.0;
  auto costed = SelectIntegerOptimal(p1);
  auto count_moves = [&](const std::vector<uint8_t>& x) {
    size_t moves = 0;
    for (size_t i = 0; i < x.size(); ++i) {
      moves += (x[i] != initial.in_dram[i]) ? 1 : 0;
    }
    return moves;
  };
  EXPECT_LE(count_moves(costed.in_dram), count_moves(free_moves.in_dram));
}

TEST(ReallocationTest, FinishResultRecordsCurrentCost) {
  // Every selector prices F(current) with its own cost model; the value is
  // exactly what a fresh CostModel charges for staying put.
  Workload w = GenerateExample1({});
  auto p = SelectionProblem::FromRelativeBudget(w, ScanCostParams{1, 100},
                                                0.3);
  EXPECT_EQ(SelectExplicit(p).current_cost, 0.0);  // no current allocation
  Rng rng(17);
  p.current.resize(w.column_count());
  for (uint8_t& y : p.current) y = rng.NextDouble() < 0.5 ? 1 : 0;
  const double staying = CostModel(w, p.params).ScanCost(p.current);
  for (double beta : {0.0, 5.0}) {
    p.beta = beta;
    EXPECT_EQ(SelectExplicit(p).current_cost, staying) << beta;
    EXPECT_EQ(SelectIntegerOptimal(p).current_cost, staying) << beta;
    EXPECT_EQ(SelectGreedyMarginal(p).current_cost, staying) << beta;
  }
}

TEST(SimplexSelectorsTest, PenaltyLpIsIntegral) {
  // Lemma 1 via the actual LP solver.
  Example1Params params;
  params.num_columns = 20;
  params.num_queries = 100;
  Workload w = GenerateExample1(params);
  SelectionProblem p;
  p.workload = &w;
  p.params = {1.0, 100.0};
  for (double alpha : {0.5, 5.0, 50.0}) {
    auto lp = SelectContinuousSimplex(p, alpha);
    auto threshold = SelectContinuousPenalty(p, alpha);
    EXPECT_EQ(lp.in_dram, threshold.in_dram) << "alpha=" << alpha;
  }
}

TEST(SimplexSelectorsTest, BudgetRelaxationHasAtMostOneFractional) {
  Example1Params params;
  params.num_columns = 20;
  params.num_queries = 100;
  Workload w = GenerateExample1(params);
  auto p = SelectionProblem::FromRelativeBudget(w, ScanCostParams{1, 100},
                                                0.35);
  auto relax = SolveRelaxationSimplex(p);
  ASSERT_TRUE(relax.feasible);
  size_t fractional = 0;
  for (double x : relax.x) {
    if (x > 1e-6 && x < 1.0 - 1e-6) ++fractional;
  }
  EXPECT_LE(fractional, 1u);
  EXPECT_LE(relax.dram_bytes, p.budget_bytes + 1e-6);
  // Relaxation lower-bounds the integer optimum.
  auto integer = SelectIntegerOptimal(p);
  EXPECT_LE(relax.scan_cost, integer.scan_cost + 1e-6);
}

}  // namespace
}  // namespace hytap
