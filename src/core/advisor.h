#ifndef HYTAP_CORE_ADVISOR_H_
#define HYTAP_CORE_ADVISOR_H_

#include <string>
#include <vector>

#include "core/tiered_table.h"
#include "selection/reallocation.h"

namespace hytap {

class CostCalibrator;

/// The one placement-planner config, shared by Advisor, GlobalAdvisor,
/// PlacementDoctor (DoctorOptions::planner) and RetierDaemon
/// (RetierOptions::planner).
struct AdvisorOptions {
  /// Static scan-cost parameters (ignored when `use_calibrated_params`).
  ScanCostParams cost_params;
  /// Opt-in online calibration (DESIGN.md §12): price with the table
  /// calibrator's fitted c_mm/c_ss instead of `cost_params`.
  bool use_calibrated_params = false;
  /// Portfolio or explicit solve, and the portfolio's deadline/workers
  /// (defaults read HYTAP_SOLVER_BUDGET_MS / HYTAP_SOLVER_THREADS).
  ReallocationOptions solver;
  /// Columns to pin in DRAM (e.g., primary keys / SLA-critical attributes).
  std::vector<ColumnId> pinned_columns;
};

/// What an entry point hands the planner: its workload model and the
/// current placement y it plans from.
struct PlanRequest {
  const Workload* workload = nullptr;
  /// Current placement y (workload arity).
  std::vector<uint8_t> current;
  /// DRAM budget in bytes; < 0 = M(y), what y already uses (placement
  /// parity: compares equal-budget allocations, not a budget change).
  double budget_bytes = -1.0;
  /// Per-byte move weight beta (§III-D); 0 = y only prices the diff.
  double beta = 0.0;
  /// Columns pinned on top of AdvisorOptions::pinned_columns.
  std::vector<ColumnId> pinned;
  /// Source of the fitted params when `use_calibrated_params` is set.
  const CostCalibrator* calibrator = nullptr;
};

/// The planner's answer: the solve (x*, solver winner/gap/deadline, F(y),
/// moves, moved bytes, improvement) plus the inputs it resolved.
struct PlacementPlan {
  ReallocationResult result;
  ScanCostParams params_used;
  double budget_bytes = 0.0;
  double current_dram_bytes = 0.0;  // M(y)
};

/// Recommendation produced by the advisor.
struct Recommendation {
  std::vector<bool> in_dram;
  SelectionResult selection;
  Workload workload;  // the workload snapshot the decision was based on
  /// The scan-cost parameters the decision used (the options' static params
  /// or the calibrator's fitted ones when opted in).
  ScanCostParams params_used;
  /// Portfolio only: the winning solver's name ("exact" / "explicit" /
  /// "greedy") and whether the deadline cut the race short.
  std::string winner;
  bool deadline_hit = false;
};

/// y of a table: 1 = the column's main partition is DRAM-resident.
std::vector<uint8_t> CurrentPlacement(const Table& table);

/// The autonomous column selection driver (paper Fig. 2): reads the table's
/// plan cache, builds the workload model, runs a selector for the given DRAM
/// budget, and (optionally) applies the placement. Plan() is the one
/// plan → solve → diff path every placement entry point shares.
class Advisor {
 public:
  explicit Advisor(AdvisorOptions options = {});

  /// Picks the params (static, or `calibrator->Fitted()` when opted in),
  /// builds the SelectionProblem from y, beta and the pins, solves it
  /// through SelectWithReallocation, and returns the diff against y.
  PlacementPlan Plan(const PlanRequest& request) const;

  /// The params Plan() prices with.
  ScanCostParams ParamsFor(const CostCalibrator* calibrator) const;

  /// Recommends a placement for an absolute DRAM budget in bytes.
  Recommendation Recommend(const TieredTable& table,
                           double budget_bytes) const;

  /// Recommends for a relative budget w in [0, 1] of the table's total
  /// main-partition DRAM footprint.
  Recommendation RecommendRelative(const TieredTable& table, double w) const;

  /// Recommends and applies; returns migrated bytes.
  StatusOr<uint64_t> Apply(TieredTable* table, double budget_bytes) const;

  const AdvisorOptions& options() const { return options_; }

 private:
  AdvisorOptions options_;
};

}  // namespace hytap

#endif  // HYTAP_CORE_ADVISOR_H_
