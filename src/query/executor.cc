#include "query/executor.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <optional>
#include <string>
#include <type_traits>
#include <variant>

#include "common/assert.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "query/scan.h"
#include "storage/typed_column.h"

namespace hytap {

namespace {

/// Registry handles resolved once; updates are gated on the HYTAP_METRICS
/// knob.
struct QueryMetrics {
  Counter* queries;
  Counter* query_failures;
  Counter* index_lookups;
  Counter* probe_steps;
  Counter* scan_to_probe_switches;
  Counter* rescan_steps;
  HistogramMetric* query_sim_ns;
  HistogramMetric* query_result_rows;

  static QueryMetrics& Get() {
    static QueryMetrics metrics;
    return metrics;
  }

 private:
  QueryMetrics() {
    MetricsRegistry& registry = MetricsRegistry::Global();
    queries = registry.GetCounter("hytap_query_executions_total");
    query_failures = registry.GetCounter("hytap_query_failures_total");
    index_lookups = registry.GetCounter("hytap_query_index_lookups_total");
    probe_steps = registry.GetCounter("hytap_query_probe_steps_total");
    scan_to_probe_switches =
        registry.GetCounter("hytap_query_scan_to_probe_switches_total");
    rescan_steps = registry.GetCounter("hytap_query_rescan_steps_total");
    query_sim_ns = registry.GetHistogram("hytap_query_simulated_ns",
                                         DurationNsBuckets());
    query_result_rows =
        registry.GetHistogram("hytap_query_result_rows", RowCountBuckets());
  }
};

/// Steady-clock ns for TraceSpan::wall_ns (only sampled while tracing).
uint64_t WallClockNs() {
  return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count());
}

/// Starts a child span of `parent` (no-op when `parent` is null) and, on
/// Finish, stamps the simulated/wall deltas, annotates the IoStats counter
/// deltas accrued during the step, and moves the child into the parent.
/// The child is a local value until Finish — never a pointer into the
/// parent's `children` vector, which reallocates.
/// Sums an integer annotation over a span subtree (absent = 0).
uint64_t SubtreeAnnotationSum(const TraceSpan& span, const char* key) {
  uint64_t total = 0;
  const std::string& value = span.Annotation(key);
  if (!value.empty()) total += std::strtoull(value.c_str(), nullptr, 10);
  for (const TraceSpan& child : span.children) {
    total += SubtreeAnnotationSum(child, key);
  }
  return total;
}

class ScopedSpan {
 public:
  ScopedSpan(TraceSpan* parent, const char* name, const IoStats* io)
      : parent_(parent), io_(io) {
    if (parent_ == nullptr) return;
    span_.name = name;
    io_before_ = *io_;
    wall_before_ = WallClockNs();
  }

  /// Finishes on scope exit so early `return status` paths still record the
  /// (partial) step; an explicit Finish() earlier wins and makes this a
  /// no-op.
  ~ScopedSpan() { Finish(); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  bool active() const { return parent_ != nullptr; }
  /// The span under construction (null while inactive) — passed down as the
  /// parent for nested steps. Valid until Finish().
  TraceSpan* span() { return parent_ != nullptr ? &span_ : nullptr; }
  void Annotate(std::string key, std::string value) {
    if (parent_ != nullptr) span_.Annotate(std::move(key), std::move(value));
  }

  void Finish() {
    if (parent_ == nullptr) return;
    span_.simulated_ns = io_->TotalNs() - io_before_.TotalNs();
    span_.wall_ns = WallClockNs() - wall_before_;
    const IoStats& after = *io_;
    // Counter annotations are exclusive (self-only): nested steps already
    // annotated their share, so subtract each child subtree. The per-span
    // values then partition the query's IoStats — summing them over the
    // whole tree reproduces QueryResult::io exactly.
    auto delta = [&](const char* key, uint64_t before_v, uint64_t after_v) {
      uint64_t d = after_v - before_v;
      for (const TraceSpan& child : span_.children) {
        d -= SubtreeAnnotationSum(child, key);
      }
      if (d != 0) span_.Annotate(key, std::to_string(d));
    };
    delta("page_reads", io_before_.page_reads, after.page_reads);
    delta("cache_hits", io_before_.cache_hits, after.cache_hits);
    delta("retries", io_before_.retries, after.retries);
    delta("morsels_pruned", io_before_.morsels_pruned, after.morsels_pruned);
    delta("pages_pruned", io_before_.pages_pruned, after.pages_pruned);
    delta("checksum_failures", io_before_.checksum_failures,
          after.checksum_failures);
    delta("quarantined_pages", io_before_.quarantined_pages,
          after.quarantined_pages);
    parent_->children.push_back(std::move(span_));
    parent_ = nullptr;
  }

 private:
  TraceSpan* parent_;
  const IoStats* io_;
  TraceSpan span_;
  IoStats io_before_;
  uint64_t wall_before_ = 0;
};

/// Standard per-predicate-step annotations: which column, the planner's
/// estimated selectivity vs. the observed one (survivors / candidates), and
/// the raw candidate counts.
void AnnotatePredicateStep(ScopedSpan& span, const std::string& column,
                           double est_selectivity, size_t candidates_in,
                           size_t candidates_out) {
  if (!span.active()) return;
  span.Annotate("column", column);
  span.Annotate("est_selectivity", TraceFormatDouble(est_selectivity));
  span.Annotate("actual_selectivity",
                TraceFormatDouble(candidates_in == 0
                                      ? 0.0
                                      : double(candidates_out) /
                                            double(candidates_in)));
  span.Annotate("candidates_in", std::to_string(candidates_in));
  span.Annotate("candidates_out", std::to_string(candidates_out));
}

/// Appends one executed predicate step to the query observation (no-op when
/// `obs` is null, i.e. no monitor attached or the knob is off). Like trace
/// spans, reads only finished, deterministic engine state.
void RecordStep(QueryObservation* obs, ColumnId column, StepKind kind,
                uint64_t candidates_in, uint64_t candidates_out,
                double est_selectivity, const IoStats& before,
                const IoStats& after, uint64_t mm_bytes) {
  if (obs == nullptr) return;
  StepObservation step;
  step.column = column;
  step.kind = kind;
  step.candidates_in = candidates_in;
  step.candidates_out = candidates_out;
  step.estimated_selectivity = est_selectivity;
  step.observed_selectivity =
      candidates_in == 0 ? 0.0
                         : double(candidates_out) / double(candidates_in);
  step.device_ns = after.device_ns - before.device_ns;
  step.dram_ns = after.dram_ns - before.dram_ns;
  step.page_reads = after.page_reads - before.page_reads;
  step.cache_hits = after.cache_hits - before.cache_hits;
  step.mm_bytes = mm_bytes;
  obs->steps.push_back(step);
}

}  // namespace

QueryExecutor::QueryExecutor(const Table* table, double probe_threshold)
    : table_(table), probe_threshold_(probe_threshold) {
  HYTAP_ASSERT(table != nullptr, "executor requires a table");
}

double QueryExecutor::EstimateSelectivity(const Predicate& pred) const {
  // Histogram-backed estimate when statistics exist (range-aware); otherwise
  // the 1/distinct default (paper §II-B footnote).
  if (const TableStatistics* stats = table_->statistics()) {
    return stats->EstimateSelectivity(pred.column, pred.LoPtr(),
                                      pred.HiPtr());
  }
  return table_->SelectivityEstimate(pred.column);
}

std::vector<size_t> QueryExecutor::PredicateOrder(const Query& query) const {
  std::vector<size_t> order(query.predicates.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const ColumnId ca = query.predicates[a].column;
    const ColumnId cb = query.predicates[b].column;
    const bool dram_a = table_->location(ca) == ColumnLocation::kDram;
    const bool dram_b = table_->location(cb) == ColumnLocation::kDram;
    if (dram_a != dram_b) return dram_a;  // DRAM-resident first
    const double sa = EstimateSelectivity(query.predicates[a]);
    const double sb = EstimateSelectivity(query.predicates[b]);
    if (sa != sb) return sa < sb;  // most restrictive first
    return ca < cb;
  });
  return order;
}

namespace {

bool IsEquality(const Predicate& pred) {
  return pred.lo.has_value() && pred.hi.has_value() && *pred.lo == *pred.hi;
}

/// Cancellation poll — called only at serial control points (between
/// predicate steps, between accounting batches), never inside worker
/// morsels, so a cancelled query aborts at a deterministic step boundary.
bool StopRequested(const ExecOptions& opts) {
  return opts.stop != nullptr && opts.stop->load(std::memory_order_relaxed);
}

/// Simulated DRAM cost of one B+-tree index traversal plus materializing
/// `matches` row ids.
uint64_t IndexLookupCostNs(size_t indexed_rows, size_t matches) {
  size_t height = 1;
  for (size_t n = indexed_rows; n > 64; n /= 64) ++height;
  return (height * 2 + matches) * kDramTouchNs;
}

}  // namespace

// Index selection (paper §II-B: "filters are executed using indices if
// existing; afterwards, the remaining filters are sorted ..."): prefer a
// composite index covered by equality predicates, then a single-column index
// on the most selective indexed predicate. Returns the indices of the
// consumed predicates via `used`.
const MainIndex* QueryExecutor::PickIndex(const Query& query,
                                          std::vector<size_t>* used) const {
  // Composite: all key parts present as equalities.
  std::vector<ColumnId> equality_columns;
  for (const Predicate& pred : query.predicates) {
    if (IsEquality(pred)) equality_columns.push_back(pred.column);
  }
  if (const MainIndex* composite =
          table_->FindCompositeIndex(equality_columns)) {
    for (ColumnId key_part : composite->columns()) {
      for (size_t i = 0; i < query.predicates.size(); ++i) {
        if (query.predicates[i].column == key_part &&
            IsEquality(query.predicates[i])) {
          used->push_back(i);
          break;
        }
      }
    }
    return composite;
  }
  // Single-column: most selective indexed predicate first.
  const MainIndex* best = nullptr;
  double best_selectivity = 2.0;
  size_t best_predicate = 0;
  for (size_t i = 0; i < query.predicates.size(); ++i) {
    const MainIndex* index = table_->FindIndex(query.predicates[i].column);
    if (index == nullptr) continue;
    // Histogram-backed, predicate-aware estimate: a wide range over a
    // low-cardinality index should lose to a tight range over a wide one,
    // which the static per-column 1/distinct default cannot express.
    const double s = EstimateSelectivity(query.predicates[i]);
    if (s < best_selectivity) {
      best_selectivity = s;
      best = index;
      best_predicate = i;
    }
  }
  if (best != nullptr) used->push_back(best_predicate);
  return best;
}

Status QueryExecutor::ExecuteMain(const Transaction& txn, const Query& query,
                                  const std::vector<size_t>& order,
                                  const ExecOptions& opts, QueryResult* result,
                                  TraceSpan* trace,
                                  QueryObservation* obs) const {
  const uint32_t threads = opts.threads;
  const size_t main_rows = table_->main_row_count();
  if (main_rows == 0) return Status::Ok();
  if (StopRequested(opts)) {
    return Status::Cancelled("query cancelled before the index step");
  }
  PositionList positions;
  bool first = true;
  IoStats obs_before;  // io snapshot at the start of the current step
  // Index access path.
  std::vector<size_t> used_predicates;
  if (!query.predicates.empty()) {
    if (const MainIndex* index = PickIndex(query, &used_predicates)) {
      if (obs != nullptr) obs_before = result->io;
      ScopedSpan span(trace, "index", &result->io);
      if (index->columns().size() > 1) {
        Row key(index->columns().size());
        for (size_t k = 0; k < index->columns().size(); ++k) {
          key[k] = *query.predicates[used_predicates[k]].lo;
        }
        positions = index->Lookup(key);
      } else {
        const Predicate& pred = query.predicates[used_predicates[0]];
        if (IsEquality(pred)) {
          positions = index->Lookup({*pred.lo});
        } else {
          index->RangeLookup(pred.LoPtr(), pred.HiPtr(), &positions);
        }
      }
      result->io.dram_ns += IndexLookupCostNs(index->size(),
                                              positions.size());
      result->candidate_trace.push_back(positions.size());
      QueryMetrics::Get().index_lookups->Add();
      if (span.active()) {
        std::string columns;
        for (ColumnId c : index->columns()) {
          if (!columns.empty()) columns += ',';
          columns += table_->schema()[c].name;
        }
        span.Annotate("columns", std::move(columns));
        span.Annotate("candidates_out", std::to_string(positions.size()));
      }
      span.Finish();
      // Single-column index lookups sample that column's selectivity;
      // composite lookups answer several predicates at once, so their joint
      // selectivity is not attributable to one column and only the template
      // (filtered_columns) records them.
      if (obs != nullptr && index->columns().size() == 1) {
        const Predicate& pred = query.predicates[used_predicates[0]];
        RecordStep(obs, pred.column, StepKind::kIndex, main_rows,
                   positions.size(), EstimateSelectivity(pred), obs_before,
                   result->io, 0);
      }
      first = false;
    }
  }
  for (size_t idx : order) {
    if (std::find(used_predicates.begin(), used_predicates.end(), idx) !=
        used_predicates.end()) {
      continue;  // already answered by the index
    }
    if (StopRequested(opts)) {
      return Status::Cancelled("query cancelled between predicate steps");
    }
    const Predicate& pred = query.predicates[idx];
    const size_t candidates_in = positions.size();
    const char* step = nullptr;
    if (obs != nullptr) obs_before = result->io;
    if (first) {
      step = "scan";
      ScopedSpan span(trace, step, &result->io);
      Status status = ScanMainColumn(*table_, pred.column, pred, threads,
                                     &positions, &result->io, nullptr,
                                     opts.buffers);
      AnnotatePredicateStep(span, table_->schema()[pred.column].name,
                            span.active() ? EstimateSelectivity(pred) : 0.0,
                            main_rows, positions.size());
      span.Finish();
      if (!status.ok()) return status;
      if (obs != nullptr) {
        // Modeled DRAM bytes of an MRC scan: the bit-packed code vector
        // scaled by the surviving (unpruned) morsel fraction — mirroring the
        // dram_ns the scan charged, but denominated in bytes so the
        // calibrator can fit ns/byte independently of the reference params.
        uint64_t mm_bytes = 0;
        if (table_->location(pred.column) == ColumnLocation::kDram) {
          const AbstractColumn* mrc = table_->mrc(pred.column);
          const uint64_t bytes = mrc->MemoryUsage();
          const uint64_t morsels =
              ThreadPool::MorselCount(0, mrc->size(), kScanMorselRows);
          const uint64_t pruned =
              result->io.morsels_pruned - obs_before.morsels_pruned;
          mm_bytes = morsels == 0 ? bytes : bytes - bytes * pruned / morsels;
        }
        RecordStep(obs, pred.column, StepKind::kScan, main_rows,
                   positions.size(), EstimateSelectivity(pred), obs_before,
                   result->io, mm_bytes);
      }
      first = false;
    } else if (positions.empty()) {
      result->candidate_trace.push_back(0);
      continue;
    } else {
      const double fraction =
          static_cast<double>(positions.size()) / double(main_rows);
      PositionList next;
      const bool rescan =
          fraction >= probe_threshold_ &&
          table_->location(pred.column) == ColumnLocation::kSecondary;
      step = rescan ? "rescan" : "probe";
      ScopedSpan span(trace, step, &result->io);
      if (span.active()) {
        // The scan-vs-probe switch (paper §II-B): annotate the decision
        // inputs so EXPLAIN shows *why* this step scanned or probed.
        span.Annotate("qualifying_fraction", TraceFormatDouble(fraction));
        span.Annotate("probe_threshold", TraceFormatDouble(probe_threshold_));
        span.Annotate("decision", rescan ? "scan" : "probe");
      }
      if (rescan) {
        // Too many candidates for random page probes: sequentially scan the
        // tiered group and intersect (paper §II-B scan-vs-probe switch).
        // The rescan is restricted to the page span covered by the
        // surviving candidates — pages outside it cannot contribute to the
        // intersection.
        QueryMetrics::Get().rescan_steps->Add();
        PositionList scanned;
        Status status = ScanMainColumn(*table_, pred.column, pred, threads,
                                       &scanned, &result->io, &positions,
                                       opts.buffers);
        if (!status.ok()) {
          AnnotatePredicateStep(span, table_->schema()[pred.column].name,
                                span.active() ? EstimateSelectivity(pred)
                                              : 0.0,
                                candidates_in, 0);
          span.Finish();
          return status;
        }
        std::set_intersection(positions.begin(), positions.end(),
                              scanned.begin(), scanned.end(),
                              std::back_inserter(next));
      } else {
        QueryMetrics::Get().probe_steps->Add();
        if (table_->location(pred.column) == ColumnLocation::kSecondary) {
          QueryMetrics::Get().scan_to_probe_switches->Add();
        }
        Status status = ProbeMainColumn(*table_, pred.column, pred, positions,
                                        threads, &next, &result->io,
                                        opts.buffers);
        if (!status.ok()) {
          AnnotatePredicateStep(span, table_->schema()[pred.column].name,
                                span.active() ? EstimateSelectivity(pred)
                                              : 0.0,
                                candidates_in, 0);
          span.Finish();
          return status;
        }
      }
      positions = std::move(next);
      AnnotatePredicateStep(span, table_->schema()[pred.column].name,
                            span.active() ? EstimateSelectivity(pred) : 0.0,
                            candidates_in, positions.size());
      span.Finish();
      if (obs != nullptr) {
        RecordStep(obs, pred.column,
                   rescan ? StepKind::kRescan : StepKind::kProbe,
                   candidates_in, positions.size(), EstimateSelectivity(pred),
                   obs_before, result->io, 0);
      }
    }
    result->candidate_trace.push_back(positions.size());
  }
  if (query.predicates.empty()) {
    positions.resize(main_rows);
    for (RowId r = 0; r < main_rows; ++r) positions[r] = r;
  }
  // MVCC: filter invalidated main rows.
  for (RowId row : positions) {
    if (table_->IsVisible(row, txn)) result->positions.push_back(row);
  }
  return Status::Ok();
}

void QueryExecutor::ExecuteDelta(const Transaction& txn, const Query& query,
                                 const std::vector<size_t>& order,
                                 const ExecOptions& opts, QueryResult* result,
                                 TraceSpan* trace) const {
  // Bounded by the submit-time delta size when serving: rows appended while
  // the query was queued are invisible to its snapshot, so excluding them
  // from the scan span keeps the DRAM cost (and the observation) a pure
  // function of the ticket.
  const size_t delta_rows =
      std::min(opts.delta_limit, table_->delta_row_count());
  if (delta_rows == 0) return;
  ScopedSpan span(trace, "delta", &result->io);
  PositionList positions;
  bool first = true;
  for (size_t idx : order) {
    const Predicate& pred = query.predicates[idx];
    if (first) {
      ScanDeltaColumn(*table_, pred.column, pred, &positions, &result->io,
                      delta_rows);
      first = false;
    } else if (positions.empty()) {
      break;
    } else {
      PositionList next;
      ProbeDeltaColumn(*table_, pred.column, pred, positions, &next,
                       &result->io);
      positions = std::move(next);
    }
  }
  if (query.predicates.empty()) {
    positions.resize(delta_rows);
    for (RowId r = 0; r < delta_rows; ++r) positions[r] = r;
  }
  const size_t main_rows = table_->main_row_count();
  size_t visible = 0;
  for (RowId local : positions) {
    const RowId global = main_rows + local;
    if (table_->IsVisible(global, txn)) {
      result->positions.push_back(global);
      ++visible;
    }
  }
  if (span.active()) {
    span.Annotate("delta_rows", std::to_string(delta_rows));
    span.Annotate("qualifying", std::to_string(positions.size()));
    span.Annotate("visible", std::to_string(visible));
  }
  span.Finish();
}

namespace {

/// Positions between stop-token polls of the tuple accounting pass.
constexpr size_t kAccountPollRows = 4096;

double SumInput(const Value& v) {
  switch (v.type()) {
    case DataType::kInt32:
      return double(v.AsInt32());
    case DataType::kInt64:
      return double(v.AsInt64());
    case DataType::kFloat:
      return double(v.AsFloat());
    case DataType::kDouble:
      return v.AsDouble();
    case DataType::kString:
      break;
  }
  HYTAP_UNREACHABLE("SUM over a string column");
}

template <typename T>
double SumInput(const T& v) {
  if constexpr (std::is_arithmetic_v<T>) {
    return double(v);
  } else {
    HYTAP_UNREACHABLE("SUM over a string column");
  }
}

/// Folds a SUM/MIN/MAX aggregate over `n` inputs in position order
/// (`input(i)` is the i-th): the serial order keeps floating-point sums and
/// min/max tie-breaks (the first extreme wins; NaN never replaces) exactly
/// those of a row-at-a-time fold.
template <typename T, typename Input>
Value Fold(Aggregate::Kind kind, size_t n, Input input) {
  if (kind == Aggregate::Kind::kSum) {
    double sum = 0.0;
    for (size_t i = 0; i < n; ++i) sum += SumInput(input(i));
    return Value(sum);
  }
  if (n == 0) return Value();
  T best = input(0);
  for (size_t i = 1; i < n; ++i) {
    const T& v = input(i);
    if (kind == Aggregate::Kind::kMin ? v < best : best < v) best = v;
  }
  return Value(best);
}

/// Where a fetch column's main-partition cells live, resolved once per
/// query: an MRC, or (mrc == null) a slot of the SSCG.
struct MainSource {
  const AbstractColumn* mrc = nullptr;
  size_t slot = 0;
};

}  // namespace

Status QueryExecutor::Materialize(const Query& query, const ExecOptions& opts,
                                  QueryResult* result,
                                  TraceSpan* trace) const {
  if (query.projections.empty() && query.aggregates.empty()) {
    return Status::Ok();
  }
  const uint32_t threads = opts.threads;
  BufferManager* buffers =
      opts.buffers != nullptr ? opts.buffers : table_->buffers();
  if (StopRequested(opts)) {
    return Status::Cancelled("query cancelled before materialization");
  }
  ScopedSpan span(trace, "materialize", &result->io);
  if (span.active()) {
    span.Annotate("positions", std::to_string(result->positions.size()));
    span.Annotate("projections", std::to_string(query.projections.size()));
    span.Annotate("aggregates", std::to_string(query.aggregates.size()));
  }
  const size_t main_rows = table_->main_row_count();
  // Fetch set: projections first, then any extra aggregate inputs, so
  // SSCG attributes of one row still share a single page access
  // (paper §II-A: tuple-centric SSCG locality).
  std::vector<ColumnId> fetch_cols = query.projections;
  std::vector<size_t> aggregate_slot(query.aggregates.size(), SIZE_MAX);
  for (size_t a = 0; a < query.aggregates.size(); ++a) {
    const Aggregate& agg = query.aggregates[a];
    if (agg.kind == Aggregate::Kind::kCount) continue;
    auto it = std::find(fetch_cols.begin(), fetch_cols.end(), agg.column);
    if (it == fetch_cols.end()) {
      aggregate_slot[a] = fetch_cols.size();
      fetch_cols.push_back(agg.column);
    } else {
      aggregate_slot[a] = size_t(it - fetch_cols.begin());
    }
  }
  const size_t projected = query.projections.size();

  const Sscg* sscg = table_->sscg();
  std::vector<MainSource> sources(fetch_cols.size());
  bool any_sscg = false, projects_sscg = false;
  size_t mrc_fetches = 0;
  for (size_t p = 0; p < fetch_cols.size(); ++p) {
    const ColumnId c = fetch_cols[p];
    if (table_->location(c) == ColumnLocation::kDram) {
      sources[p].mrc = table_->mrc(c);
      ++mrc_fetches;
    } else {
      HYTAP_ASSERT(sscg != nullptr, "SSCG projection without SSCG");
      sources[p].slot = static_cast<size_t>(sscg->layout().SlotOf(c));
      any_sscg = true;
      projects_sscg |= p < projected;
    }
  }

  // Positions list the main rows, then the delta rows.
  const PositionList& positions = result->positions;
  const size_t main_count = size_t(
      std::partition_point(positions.begin(), positions.end(),
                           [&](RowId row) { return row < main_rows; }) -
      positions.begin());

  // Device/cache accounting pass, single-threaded and in position order:
  // charges each qualifying main tuple's group page fetch exactly as a
  // per-row FetchPage loop would (one fetch per same-page run, the rest as
  // its repeat hits), so hit/miss sequences, the device model's jitter
  // draws, and the fault-injection schedule are identical for any worker
  // count. A page failure aborts here, before any worker materializes a
  // value — the first failing position wins deterministically.
  if (any_sscg) {
    // Poll the stop token between accounting batches, never mid-batch: the
    // abort point is a deterministic function of how far the pass got.
    for (size_t begin = 0; begin < positions.size();
         begin += kAccountPollRows) {
      if (StopRequested(opts)) {
        return Status::Cancelled("query cancelled during tuple accounting");
      }
      const size_t end = std::min(begin + kAccountPollRows, main_count);
      if (begin >= end) continue;
      Status status = sscg->AccountTupleFetches(
          positions.data() + begin, end - begin, buffers, threads,
          &result->io);
      if (!status.ok()) return status;
    }
  }
  if (StopRequested(opts)) {
    return Status::Cancelled("query cancelled before the materialize pass");
  }

  // Materialization pass: morsel-parallel over qualifying positions, each
  // row written once into its final Row and each non-projected aggregate
  // input into its typed column. SSCG slots come from raw pages (already
  // cached and accounted above); MRC cells cost two DRAM touches each
  // (value vector + dictionary), charged per morsel as one product, and
  // delta cells go through Table::GetValue — sums of constants, so the
  // total matches serial execution regardless of the morsel partition.
  const SecondaryStore* store = table_->store();
  auto main_value = [&](size_t p, RowId row, const uint8_t* tuple) {
    const MainSource& source = sources[p];
    if (source.mrc != nullptr) return source.mrc->GetValue(row);
    if (tuple == nullptr) tuple = sscg->RawTuple(row, *store);
    return sscg->layout().DeserializeSlot(tuple, source.slot);
  };
  std::vector<Row>& rows = result->rows;
  rows.resize(projected == 0 ? 0 : positions.size());
  // Non-projected aggregate inputs in position order, unboxed: workers
  // fill their morsels' index ranges; the fold reads them serially.
  std::vector<TypedColumn> inputs;
  for (size_t p = projected; p < fetch_cols.size(); ++p) {
    inputs.push_back(MakeTypedColumn(table_->schema()[fetch_cols[p]].type,
                                     positions.size()));
  }
  std::vector<IoStats> worker_io(
      ThreadPool::MorselCount(0, positions.size(), kMaterializeMorselRows));
  ThreadPool::Global().ParallelFor(
      0, positions.size(), kMaterializeMorselRows, threads,
      [&](size_t m, size_t index_begin, size_t index_end) {
        IoStats& local_io = worker_io[m];
        const size_t main_end = std::clamp(main_count, index_begin, index_end);
        local_io.dram_ns +=
            2 * kDramTouchNs * mrc_fetches * (main_end - index_begin);
        auto delta_value = [&](size_t p, RowId row) {
          StatusOr<Value> value =
              table_->GetValue(fetch_cols[p], row, threads, &local_io);
          HYTAP_ASSERT(value.ok(), "delta cells are DRAM reads");
          return std::move(*value);
        };
        for (size_t i = index_begin; projected > 0 && i < index_end; ++i) {
          const RowId row = positions[i];
          const bool in_main = i < main_end;
          const uint8_t* tuple =
              in_main && projects_sscg ? sscg->RawTuple(row, *store) : nullptr;
          Row& out = rows[i];
          out.reserve(projected);
          for (size_t p = 0; p < projected; ++p) {
            out.push_back(in_main ? main_value(p, row, tuple)
                               : delta_value(p, row));
          }
        }
        for (size_t e = 0; e < inputs.size(); ++e) {
          const size_t p = projected + e;
          std::visit(
              [&](auto& column) {
                using T = typename std::decay_t<decltype(column)>::value_type;
                for (size_t i = index_begin; i < index_end; ++i) {
                  const RowId row = positions[i];
                  column[i] = (i < main_end ? main_value(p, row, nullptr)
                                            : delta_value(p, row))
                                  .template As<T>();
                }
              },
              inputs[e]);
        }
      });
  for (const IoStats& local_io : worker_io) result->io += local_io;

  // Aggregation, single-threaded in position order: keeps floating-point
  // accumulation order (and min/max tie-breaks) identical to the serial
  // execution.
  result->aggregate_values.resize(query.aggregates.size());
  for (size_t a = 0; a < query.aggregates.size(); ++a) {
    const Aggregate::Kind kind = query.aggregates[a].kind;
    const size_t slot = aggregate_slot[a];
    Value& value = result->aggregate_values[a];
    if (kind == Aggregate::Kind::kCount) {
      value = Value(int64_t(positions.size()));
    } else if (slot < projected) {
      value = Fold<Value>(kind, rows.size(), [&](size_t i) -> const Value& {
        return rows[i][slot];
      });
    } else {
      value = std::visit(
          [&](const auto& column) {
            using T = typename std::decay_t<decltype(column)>::value_type;
            return Fold<T>(kind, column.size(),
                           [&](size_t i) -> const T& { return column[i]; });
          },
          inputs[slot - projected]);
    }
  }
  return Status::Ok();
}

QueryResult QueryExecutor::Execute(const Transaction& txn, const Query& query,
                                   uint32_t threads) const {
  ExecOptions opts;
  opts.threads = threads;
  return Execute(txn, query, opts);
}

QueryResult QueryExecutor::Execute(const Transaction& txn, const Query& query,
                                   const ExecOptions& opts) const {
  HYTAP_ASSERT(opts.threads >= 1, "thread count must be >= 1");
  QueryResult result;
  if (opts.observation_filled != nullptr) *opts.observation_filled = false;
  // Observation building (like tracing) happens only on the serial control
  // path and reads finished state — never feeds back into execution — so
  // the monitor being attached/enabled cannot change results, IO counters,
  // or fault schedules (workload_monitor_test asserts bit-identity).
  QueryObservation obs_storage;
  QueryObservation* obs = nullptr;
  if (monitor_ != nullptr && WorkloadMonitorEnabled()) {
    obs = opts.observation != nullptr ? opts.observation : &obs_storage;
    *obs = QueryObservation();  // caller-provided storage may be reused
  }
  const std::vector<size_t> order = PredicateOrder(query);
  std::unique_ptr<TraceSpan> root;
  uint64_t wall_before = 0;
  if (TraceEnabled()) {
    root = std::make_unique<TraceSpan>();
    root->name = "execute";
    root->Annotate("threads", std::to_string(opts.threads));
    std::string order_names;
    for (size_t idx : order) {
      if (!order_names.empty()) order_names += ',';
      order_names += table_->schema()[query.predicates[idx].column].name;
    }
    root->Annotate("predicate_order", std::move(order_names));
    wall_before = WallClockNs();
  }
  // Phase accounting reads finished IoStats at the pass boundaries — like
  // tracing, it never feeds back into execution. DRAM charges accrued by
  // each pass land in its phase; device time splits into productive store
  // IO vs retry waste at the end, so the vector partitions TotalNs exactly
  // even on cancellation/fault paths with partial accrual.
  PhaseVector* phases =
      (opts.phases != nullptr && PhaseAccountingEnabled()) ? opts.phases
                                                           : nullptr;
  if (phases != nullptr) *phases = PhaseVector();
  {
    ScopedSpan main_span(root.get(), "main", &result.io);
    if (main_span.active()) {
      main_span.Annotate("main_rows",
                         std::to_string(table_->main_row_count()));
    }
    result.status = ExecuteMain(txn, query, order, opts, &result,
                                main_span.span(), obs);
  }
  uint64_t phase_dram_mark = result.io.dram_ns;
  if (phases != nullptr) {
    (*phases)[QueryPhase::kScanProbe] = result.io.dram_ns;
  }
  if (result.status.ok() && StopRequested(opts)) {
    result.status = Status::Cancelled("query cancelled before the delta scan");
  }
  if (result.status.ok()) {
    ExecuteDelta(txn, query, order, opts, &result, root.get());
    if (phases != nullptr) {
      (*phases)[QueryPhase::kDelta] = result.io.dram_ns - phase_dram_mark;
      phase_dram_mark = result.io.dram_ns;
    }
    result.status = Materialize(query, opts, &result, root.get());
    if (phases != nullptr) {
      (*phases)[QueryPhase::kMaterialize] =
          result.io.dram_ns - phase_dram_mark;
    }
  }
  if (phases != nullptr) {
    (*phases)[QueryPhase::kStoreIo] =
        result.io.device_ns - result.io.retry_backoff_ns;
    (*phases)[QueryPhase::kRetryBackoff] = result.io.retry_backoff_ns;
  }
  if (!result.status.ok()) {
    // Degrade cleanly: no partial positions, rows or aggregates ever leave
    // the executor. The accrued `io` and `status` are the whole result.
    result.positions.clear();
    result.rows.clear();
    result.aggregate_values.clear();
    result.candidate_trace.clear();
  }
  QueryMetrics& metrics = QueryMetrics::Get();
  metrics.queries->Add();
  if (!result.status.ok()) metrics.query_failures->Add();
  metrics.query_sim_ns->Observe(result.io.TotalNs());
  metrics.query_result_rows->Observe(result.positions.size());
  if (obs != nullptr) {
    for (const Predicate& pred : query.predicates) {
      obs->filtered_columns.push_back(pred.column);
    }
    std::sort(obs->filtered_columns.begin(), obs->filtered_columns.end());
    obs->filtered_columns.erase(std::unique(obs->filtered_columns.begin(),
                                            obs->filtered_columns.end()),
                                obs->filtered_columns.end());
    obs->simulated_ns = result.io.TotalNs();
    obs->device_ns = result.io.device_ns;
    obs->dram_ns = result.io.dram_ns;
    obs->page_reads = result.io.page_reads;
    obs->cache_hits = result.io.cache_hits;
    for (const StepObservation& step : obs->steps) {
      obs->mm_bytes += step.mm_bytes;
      if (step.mm_bytes > 0) obs->mm_scan_ns += step.dram_ns;
    }
    obs->result_rows = result.positions.size();
    obs->table_rows = table_->main_row_count() + table_->delta_row_count();
    obs->failed = !result.status.ok();
    if (opts.observation != nullptr) {
      // Hand the observation back instead of recording it: the serving layer
      // replays observations in ticket order so the monitor's windows and
      // the plan cache stay deterministic under concurrent execution.
      if (opts.observation_filled != nullptr) *opts.observation_filled = true;
    } else {
      monitor_->Record(*obs);
    }
  }
  if (root != nullptr) {
    root->simulated_ns = result.io.TotalNs();
    root->wall_ns = WallClockNs() - wall_before;
    root->Annotate("status", result.status.ok()
                                 ? std::string("ok")
                                 : result.status.ToString());
    root->Annotate("result_rows", std::to_string(result.positions.size()));
    result.trace = std::shared_ptr<const TraceSpan>(root.release());
  }
  return result;
}

ExplainResult QueryExecutor::Explain(const Transaction& txn,
                                     const Query& query,
                                     uint32_t threads) const {
  // Force tracing for this call only; the global knob (and with it any
  // concurrent caller's behavior) is restored before returning.
  const bool was_enabled = TraceEnabled();
  SetTraceEnabled(true);
  ExplainResult out;
  out.result = Execute(txn, query, threads);
  SetTraceEnabled(was_enabled);
  if (out.result.trace != nullptr) {
    out.text = RenderTraceText(*out.result.trace);
    out.json = RenderTraceJson(*out.result.trace);
  }
  return out;
}

}  // namespace hytap
