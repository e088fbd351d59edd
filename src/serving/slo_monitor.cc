#include "serving/slo_monitor.h"

#include <algorithm>

#include "common/env.h"
#include "common/flight_recorder.h"
#include "common/metrics.h"

namespace hytap {
namespace {

struct SloMetrics {
  Counter* observations;
  Counter* violations;
  Counter* breaches;
  Counter* clears;
  Gauge* oltp_burn_milli;
  Gauge* olap_burn_milli;
  Gauge* oltp_breached;
  Gauge* olap_breached;
  static SloMetrics& Get() {
    auto& registry = MetricsRegistry::Global();
    static SloMetrics m{
        registry.GetCounter("hytap_slo_observations_total"),
        registry.GetCounter("hytap_slo_violations_total"),
        registry.GetCounter("hytap_slo_breaches_total"),
        registry.GetCounter("hytap_slo_clears_total"),
        registry.GetGauge("hytap_slo_oltp_burn_milli"),
        registry.GetGauge("hytap_slo_olap_burn_milli"),
        registry.GetGauge("hytap_slo_oltp_breached"),
        registry.GetGauge("hytap_slo_olap_breached")};
    return m;
  }
};

}  // namespace

SloMonitor::Options SloMonitor::Options::FromEnv() {
  Options options;
  options.oltp_ns = EnvU64("HYTAP_SLO_OLTP_NS", options.oltp_ns);
  options.olap_ns = EnvU64("HYTAP_SLO_OLAP_NS", options.olap_ns);
  options.target_ppm = std::min<uint64_t>(
      EnvU64("HYTAP_SLO_TARGET_PPM", options.target_ppm), 999'999);
  options.burn_threshold =
      EnvDouble("HYTAP_SLO_BURN_THRESHOLD", options.burn_threshold);
  options.fast_windows = std::max<size_t>(
      1, EnvU64("HYTAP_SLO_FAST_WINDOWS", options.fast_windows));
  options.slow_windows = std::max<size_t>(
      options.fast_windows,
      EnvU64("HYTAP_SLO_SLOW_WINDOWS", options.slow_windows));
  return options;
}

SloMonitor::SloMonitor(Options options)
    : options_(options),
      budget_(std::max(1e-9, (1e6 - static_cast<double>(std::min<uint64_t>(
                                        options.target_ppm, 999'999))) /
                                 1e6)) {}

void SloMonitor::Observe(QueryClass cls, uint64_t sim_latency_ns, bool failed,
                         uint64_t window, uint64_t sim_ns, uint64_t ticket) {
  uint64_t objective =
      cls == QueryClass::kOltp ? options_.oltp_ns : options_.olap_ns;
  bool bad = failed || sim_latency_ns > objective;
  std::lock_guard<std::mutex> lock(mutex_);
  ClassState& state = classes_[static_cast<size_t>(cls)];
  if (state.windows.empty() || state.windows.back().index < window) {
    state.windows.push_back(WindowBucket{window, 0, 0});
    while (state.windows.size() > options_.slow_windows) {
      state.windows.pop_front();
    }
  }
  WindowBucket& bucket = state.windows.back();
  if (bad) {
    ++bucket.bad;
    ++state.violations;
    SloMetrics::Get().violations->Add();
  } else {
    ++bucket.good;
  }
  ++state.observations;
  SloMetrics::Get().observations->Add();
  EvaluateLocked(cls, window, sim_ns, ticket);
}

double SloMonitor::BurnOver(const ClassState& state, size_t span) const {
  uint64_t good = 0;
  uint64_t bad = 0;
  size_t counted = 0;
  for (auto it = state.windows.rbegin();
       it != state.windows.rend() && counted < span; ++it, ++counted) {
    good += it->good;
    bad += it->bad;
  }
  uint64_t total = good + bad;
  if (total == 0) return 0.0;
  double bad_fraction = static_cast<double>(bad) / static_cast<double>(total);
  return bad_fraction / budget_;
}

void SloMonitor::EvaluateLocked(QueryClass cls, uint64_t window,
                                uint64_t sim_ns, uint64_t ticket) {
  ClassState& state = classes_[static_cast<size_t>(cls)];
  state.fast_burn = BurnOver(state, options_.fast_windows);
  state.slow_burn = BurnOver(state, options_.slow_windows);
  bool breached = state.fast_burn >= options_.burn_threshold &&
                  state.slow_burn >= options_.burn_threshold;
  if (breached && !state.breached) {
    state.breached = true;
    ++state.breaches;
    SloMetrics::Get().breaches->Add();
    uint64_t burn_milli =
        static_cast<uint64_t>(std::min(state.fast_burn, 1e15) * 1000.0);
    FlightRecorder::Global().Record(
        FlightEventType::kSloBreach, static_cast<uint16_t>(window & 0xffff),
        ticket, window, sim_ns, static_cast<uint64_t>(cls), burn_milli);
    FlightRecorder::Global().Anomaly(
        AnomalyKind::kSloBreach,
        cls == QueryClass::kOltp ? "slo_breach_oltp" : "slo_breach_olap",
        ticket, window, sim_ns, static_cast<uint64_t>(cls), burn_milli);
  } else if (!breached && state.breached) {
    state.breached = false;
    ++state.clears;
    SloMetrics::Get().clears->Add();
    FlightRecorder::Global().Record(FlightEventType::kSloClear, 0, ticket,
                                    window, sim_ns,
                                    static_cast<uint64_t>(cls));
  }
}

SloMonitor::ClassSnapshot SloMonitor::Snapshot(QueryClass cls) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const ClassState& state = classes_[static_cast<size_t>(cls)];
  ClassSnapshot snapshot;
  snapshot.observations = state.observations;
  snapshot.violations = state.violations;
  snapshot.fast_burn = state.fast_burn;
  snapshot.slow_burn = state.slow_burn;
  snapshot.breached = state.breached;
  snapshot.breaches = state.breaches;
  snapshot.clears = state.clears;
  return snapshot;
}

bool SloMonitor::breached(QueryClass cls) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return classes_[static_cast<size_t>(cls)].breached;
}

void SloMonitor::ExportGauges() const {
  std::lock_guard<std::mutex> lock(mutex_);
  const ClassState& oltp = classes_[static_cast<size_t>(QueryClass::kOltp)];
  const ClassState& olap = classes_[static_cast<size_t>(QueryClass::kOlap)];
  auto milli = [](double burn) {
    return static_cast<int64_t>(std::min(burn, 1e15) * 1000.0);
  };
  SloMetrics::Get().oltp_burn_milli->Set(milli(oltp.fast_burn));
  SloMetrics::Get().olap_burn_milli->Set(milli(olap.fast_burn));
  SloMetrics::Get().oltp_breached->Set(oltp.breached ? 1 : 0);
  SloMetrics::Get().olap_breached->Set(olap.breached ? 1 : 0);
}

void SloMonitor::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (ClassState& state : classes_) {
    state = ClassState{};
  }
}

}  // namespace hytap
