#ifndef HYTAP_SELECTION_CALIBRATION_H_
#define HYTAP_SELECTION_CALIBRATION_H_

#include <cstdint>
#include <mutex>

#include "selection/cost_model.h"
#include "workload/workload_monitor.h"

namespace hytap {

/// Per-tier calibration accumulator: observed simulated time vs bytes
/// streamed, i.e. the empirical ns-per-byte the scan-cost parameters claim
/// to model.
struct TierCalibration {
  uint64_t observed_ns = 0;
  uint64_t bytes = 0;
  uint64_t samples = 0;  // queries that touched this tier

  /// Observed ns/byte; `fallback` when the tier was never touched.
  double NsPerByte(double fallback) const {
    return bytes == 0 ? fallback : double(observed_ns) / double(bytes);
  }
};

/// Online scan-cost-model calibration (DESIGN.md §12).
///
/// Fed one QueryObservation per query (as the monitor's sink), it compares
/// the cost the reference `ScanCostParams` predict for the bytes each tier
/// streamed against the simulated time the engine actually charged, keeps
/// per-tier residual-ratio histograms in the metrics registry
/// (`hytap_calibration_residual_ratio_pct_{dram,secondary}`, 100 = the
/// model was exact), and fits calibrated parameters from the accumulated
/// bytes/ns:
///
///   c_mm = sum(dram scan ns)   / sum(MRC bytes streamed)
///   c_ss = sum(device ns)      / sum(page_reads * kPageSize)
///
/// The fit is independent of the reference parameters — only the residual
/// report depends on them — so a perturbed starting point still converges
/// to the device models' effective bandwidths (`placement_doctor_test`).
/// Report-only by default: nothing consumes Fitted() unless a planner opts
/// in via AdvisorOptions::use_calibrated_params (the Advisor, and the doctor
/// and daemon through their embedded `planner` options).
class CostCalibrator : public QueryObservationSink {
 public:
  explicit CostCalibrator(ScanCostParams reference = ScanCostParams());

  /// Records one query's per-tier bytes/ns and residuals. Pure observer;
  /// thread-safe.
  void Observe(const QueryObservation& observation) override;

  /// The parameters residuals are measured against.
  ScanCostParams reference() const;
  void set_reference(ScanCostParams reference);

  /// Calibrated parameters in simulated ns/byte; tiers without samples keep
  /// the reference value.
  ScanCostParams Fitted() const;

  uint64_t sample_count() const;
  TierCalibration dram() const;
  TierCalibration secondary() const;

  /// Aggregate observed/predicted ratio per tier under the reference
  /// parameters (1.0 = exact; 0 when the tier has no bytes).
  double DramResidualRatio() const;
  double SecondaryResidualRatio() const;

  void Reset();

 private:
  mutable std::mutex mutex_;
  ScanCostParams reference_;
  TierCalibration dram_;
  TierCalibration secondary_;
  uint64_t sample_count_ = 0;
};

}  // namespace hytap

#endif  // HYTAP_SELECTION_CALIBRATION_H_
