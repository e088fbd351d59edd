#include "core/advisor.h"

#include "common/assert.h"
#include "selection/calibration.h"

namespace hytap {

std::vector<uint8_t> CurrentPlacement(const Table& table) {
  const std::vector<bool>& placement = table.placement();
  return std::vector<uint8_t>(placement.begin(), placement.end());
}

Advisor::Advisor(AdvisorOptions options) : options_(std::move(options)) {}

ScanCostParams Advisor::ParamsFor(const CostCalibrator* calibrator) const {
  if (!options_.use_calibrated_params) return options_.cost_params;
  HYTAP_ASSERT(calibrator != nullptr, "calibrated params need a calibrator");
  return calibrator->Fitted();
}

PlacementPlan Advisor::Plan(const PlanRequest& request) const {
  HYTAP_ASSERT(request.workload != nullptr, "plan needs a workload");
  const Workload& workload = *request.workload;
  PlacementPlan plan;
  plan.params_used = ParamsFor(request.calibrator);
  for (size_t c = 0; c < request.current.size(); ++c) {
    if (request.current[c]) {
      plan.current_dram_bytes += workload.column_sizes[c];
    }
  }
  plan.budget_bytes = request.budget_bytes < 0.0 ? plan.current_dram_bytes
                                                 : request.budget_bytes;

  SelectionProblem problem;
  problem.workload = &workload;
  problem.params = plan.params_used;
  problem.budget_bytes = plan.budget_bytes;
  problem.current = request.current;
  problem.beta = request.beta;
  if (!options_.pinned_columns.empty() || !request.pinned.empty()) {
    problem.pinned.assign(workload.column_count(), 0);
    for (const std::vector<ColumnId>* pins :
         {&options_.pinned_columns, &request.pinned}) {
      for (ColumnId c : *pins) {
        HYTAP_ASSERT(c < problem.pinned.size(), "pinned column out of range");
        problem.pinned[c] = 1;
      }
    }
  }
  plan.result = SelectWithReallocation(problem, options_.solver);
  return plan;
}

Recommendation Advisor::Recommend(const TieredTable& table,
                                  double budget_bytes) const {
  Recommendation rec;
  rec.workload = table.plan_cache().ToWorkload(table.table());
  PlanRequest request;
  request.workload = &rec.workload;
  request.current = CurrentPlacement(table.table());
  request.budget_bytes = budget_bytes;
  request.calibrator = &table.calibrator();
  PlacementPlan plan = Plan(request);
  rec.params_used = plan.params_used;
  rec.winner = std::move(plan.result.winner);
  rec.deadline_hit = plan.result.deadline_hit;
  rec.selection = std::move(plan.result.selection);
  rec.in_dram.assign(rec.selection.in_dram.begin(),
                     rec.selection.in_dram.end());
  return rec;
}

Recommendation Advisor::RecommendRelative(const TieredTable& table,
                                          double w) const {
  HYTAP_ASSERT(w >= 0.0 && w <= 1.0, "relative budget must be in [0, 1]");
  double total = 0.0;
  for (ColumnId c = 0; c < table.table().column_count(); ++c) {
    total += double(table.table().ColumnDramBytes(c));
  }
  return Recommend(table, w * total);
}

StatusOr<uint64_t> Advisor::Apply(TieredTable* table,
                                  double budget_bytes) const {
  Recommendation rec = Recommend(*table, budget_bytes);
  return table->ApplyPlacement(rec.in_dram);
}

}  // namespace hytap
