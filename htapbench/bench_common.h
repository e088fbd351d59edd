// Shared pieces of the end-to-end HTAP benchmark: the in-memory span tracer,
// percentile helpers, the metric sink, and host/process probes.
//
// Spans are recorded only around calls the benchmark itself makes into the
// engine's public API (no instrumentation inside the library). They are kept
// in memory for the whole run and written once at exit.

#ifndef HTAPBENCH_BENCH_COMMON_H_
#define HTAPBENCH_BENCH_COMMON_H_

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace htapbench {

/// Steady-clock nanoseconds.
inline uint64_t NowNs() {
  return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count());
}

/// CPU time in ns of the whole process (all threads) or of the calling
/// thread. Unlike the steady clock it stands still while the thread waits,
/// and, on kernels that account steal time, while the hypervisor runs other
/// guests on this VM's vCPUs, so work rates timed on it do not swing with
/// the neighbours' load.
inline uint64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return uint64_t(ts.tv_sec) * 1'000'000'000ull + uint64_t(ts.tv_nsec);
}
inline uint64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return uint64_t(ts.tv_sec) * 1'000'000'000ull + uint64_t(ts.tv_nsec);
}

/// One traced call: name, wall interval, the span that caused it (-1 = a
/// root), and the request it belongs to (0 = set-up / not request-scoped).
struct Span {
  const char* name = "";
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int64_t parent = -1;
  uint64_t request = 0;
};

/// Single-threaded span recorder. Disabled tracers cost one branch per call.
/// All spans of a run come from the benchmark's main thread, so a plain
/// stack tracks the parent.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }

  int64_t Begin(const char* name, uint64_t request) {
    if (!enabled_) return -1;
    Span span;
    span.name = name;
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.request = request;
    span.start_ns = NowNs();
    spans_.push_back(span);
    stack_.push_back(int64_t(spans_.size()) - 1);
    return stack_.back();
  }
  void End(int64_t id) {
    if (id < 0) return;
    spans_[size_t(id)].end_ns = NowNs();
    stack_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Per-name self time in ns: each span's duration minus the part of it
  /// covered by its direct children.
  std::map<std::string, uint64_t> SelfTimeNs() const;
  /// Writes every span as one JSON document (name, start, end, parent,
  /// request), start times relative to the first span. Returns false on an
  /// I/O error.
  bool WriteJson(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int64_t> stack_;
};

/// RAII span; a null tracer or a disabled one records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t request = 0)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->Begin(name, request) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int64_t id_;
};

/// Nearest-rank percentile (q in [0, 1]) of unsorted samples; 0 when empty.
double Percentile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}
/// Arithmetic mean; 0 when empty.
inline double Mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (double v : values) sum += v;
  return values.empty() ? 0.0 : sum / double(values.size());
}

/// A named metric with its unit, plus the sample count behind it when the
/// value is a percentile or mean (0 = not sample-based).
struct Metric {
  double value = 0.0;
  std::string unit;
  uint64_t samples = 0;
};

/// Everything one workload run reports.
struct RunReport {
  std::map<std::string, Metric> metrics;
  /// Output checks: name -> passed. Any false fails the run.
  std::map<std::string, bool> checks;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Free-form facts about the run (sizes, counts) for the detail record.
  std::map<std::string, double> facts;

  void Set(const std::string& name, double value, const std::string& unit,
           uint64_t samples = 0) {
    metrics[name] = Metric{value, unit, samples};
  }
  void Check(const std::string& name, bool passed) {
    auto it = checks.find(name);
    checks[name] = it == checks.end() ? passed : (it->second && passed);
  }
};

/// Thread CPU milliseconds of one fixed calibration kernel: fill and sort
/// 128 Ki pseudo-random 32-bit integers. It uses none of the engine, so its
/// time tracks only the speed the host gives the calling thread.
double CalibrationMs();

/// Process CPU time scaled to a reference host speed; setup_s and qps are
/// timed on it. CPU time alone still swings with the host: how much of the
/// core and its caches other guests leave changes within seconds, and moved
/// the CPU time of identical planning rounds by a third within one minute.
/// The calibration kernel swings with it when it runs on the same thread
/// right after the work (on another thread it does not). So the measured
/// thread's work is cut into segments of about kCalibrationPeriodNs wall
/// time; after each, the kernel runs, and the segment's CPU time is
/// multiplied by kReferenceCalibrationMs over the kernel's time. Engine
/// changes move the scaled time in full; the host's swings move the kernel
/// too and cancel out. The kernel's own time is not counted.
class ScaledCpuClock {
 public:
  static constexpr uint64_t kCalibrationPeriodNs = 200'000'000;
  /// Median CalibrationMs() on the host the bounds were tuned on (Intel
  /// Xeon, 4 vCPUs), so scaled times stay close to that host's CPU times.
  static constexpr double kReferenceCalibrationMs = 14.0;

  ScaledCpuClock() { StartSegment(); }

  /// Call between units of work on the measured thread: ends the segment
  /// once a calibration period has passed since it started.
  void Tick() {
    if (NowNs() - segment_wall_start_ >= kCalibrationPeriodNs) EndSegment();
  }
  /// Ends the last segment; returns the scaled CPU seconds so far.
  double Finish() {
    EndSegment();
    return scaled_s();
  }
  double scaled_s() const { return scaled_ns_ / 1e9; }
  /// Unscaled process CPU seconds of the segments.
  double raw_s() const { return raw_ns_ / 1e9; }

 private:
  void StartSegment() {
    segment_wall_start_ = NowNs();
    segment_cpu_start_ = ProcessCpuNs();
  }
  void EndSegment() {
    const double cpu_ns = double(ProcessCpuNs() - segment_cpu_start_);
    raw_ns_ += cpu_ns;
    scaled_ns_ += cpu_ns * kReferenceCalibrationMs / CalibrationMs();
    StartSegment();
  }

  uint64_t segment_wall_start_ = 0;
  uint64_t segment_cpu_start_ = 0;
  double raw_ns_ = 0.0;
  double scaled_ns_ = 0.0;
};

/// Returns freed heap memory to the OS, so the resident size reflects live
/// data rather than discarded generator and result buffers.
void ReleaseFreedMemory();
/// Resident set size of this process in MB (VmRSS) after releasing freed
/// heap memory; 0 if unavailable.
double ResidentMb();
/// Cumulative (steal, total) jiffies of all CPUs from /proc/stat. Time a
/// hypervisor gave a VM's vCPUs to other guests shows up as steal; the
/// share over a run tells whether a slow run was the host's doing.
std::pair<uint64_t, uint64_t> CpuStealJiffies();
/// CPU model name from /proc/cpuinfo ("unknown" if unavailable).
std::string CpuModel();
/// Names of the HYTAP_* environment variables that are set.
std::vector<std::string> HytapEnvironment();

/// Minimal JSON string escaping.
std::string JsonEscape(const std::string& s);
/// Number formatted with all significant digits (JSON-safe: non-finite
/// values become 0).
std::string JsonNumber(double v);

}  // namespace htapbench

#endif  // HTAPBENCH_BENCH_COMMON_H_
