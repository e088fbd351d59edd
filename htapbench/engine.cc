// Engine-side helpers shared by the htap_serving, olap_scan and tuple_fetch
// workloads: the traced serial replay behind the query.* metrics, the
// storage kernel rates, and the IoStats-derived storage/tiering ratios.

#include <algorithm>
#include <cstring>
#include <iterator>

#include "common/phases.h"
#include "common/thread_pool.h"
#include "query/scan.h"
#include "storage/dictionary_column.h"
#include "storage/zone_map.h"
#include "workloads.h"

namespace htapbench {

using namespace hytap;

namespace {

struct ReplayOutcome {
  PositionList positions;
  std::vector<size_t> candidates;
  uint64_t examined = 0;
  uint64_t mrc_morsels = 0;
  uint64_t mrc_morsels_pruned = 0;
};

/// Mirrors QueryExecutor::Execute for tables without indexes: predicates in
/// PredicateOrder, first one scanned, the rest probed or (tiered, too many
/// candidates) rescanned over the candidates' page span; then MVCC, the
/// delta partition, and materialization of projections and aggregates.
Status ReplayOne(const TieredTable& tt, Tracer* tracer, uint64_t request,
                 const Transaction& txn, const Query& query, uint32_t threads,
                 BufferManager* buffers, ReplayOutcome* out, IoStats* io) {
  const Table& table = tt.table();
  ScopedSpan execute_span(tracer, "query.execute", request);
  const std::vector<size_t> order = tt.executor().PredicateOrder(query);
  const size_t main_rows = table.main_row_count();
  PositionList positions;
  bool first = true;
  for (size_t idx : order) {
    const Predicate& pred = query.predicates[idx];
    const bool dram = table.location(pred.column) == ColumnLocation::kDram;
    if (first) {
      ScopedSpan span(tracer, "query.scan", request);
      const uint64_t pruned_before = io->morsels_pruned;
      Status status = ScanMainColumn(table, pred.column, pred, threads,
                                     &positions, io, nullptr, buffers);
      if (!status.ok()) return status;
      out->examined += main_rows;
      if (dram) {
        out->mrc_morsels += ThreadPool::MorselCount(0, main_rows,
                                                    kScanMorselRows);
        out->mrc_morsels_pruned += io->morsels_pruned - pruned_before;
      }
      first = false;
    } else if (positions.empty()) {
      out->candidates.push_back(0);
      continue;
    } else {
      out->examined += positions.size();
      const double fraction = double(positions.size()) / double(main_rows);
      PositionList next;
      if (fraction >= tt.options().probe_threshold && !dram) {
        ScopedSpan span(tracer, "query.scan", request);
        PositionList scanned;
        Status status = ScanMainColumn(table, pred.column, pred, threads,
                                       &scanned, io, &positions, buffers);
        if (!status.ok()) return status;
        std::set_intersection(positions.begin(), positions.end(),
                              scanned.begin(), scanned.end(),
                              std::back_inserter(next));
      } else {
        ScopedSpan span(tracer, "query.probe", request);
        Status status = ProbeMainColumn(table, pred.column, pred, positions,
                                        threads, &next, io, buffers);
        if (!status.ok()) return status;
      }
      positions = std::move(next);
    }
    out->candidates.push_back(positions.size());
  }
  for (RowId row : positions) {
    if (table.IsVisible(row, txn)) out->positions.push_back(row);
  }
  const size_t delta_rows = table.delta_row_count();
  if (delta_rows > 0) {
    ScopedSpan span(tracer, "query.delta", request);
    PositionList delta;
    bool delta_first = true;
    for (size_t idx : order) {
      const Predicate& pred = query.predicates[idx];
      if (delta_first) {
        ScanDeltaColumn(table, pred.column, pred, &delta, io, delta_rows);
        delta_first = false;
      } else if (delta.empty()) {
        break;
      } else {
        PositionList next;
        ProbeDeltaColumn(table, pred.column, pred, delta, &next, io);
        delta = std::move(next);
      }
    }
    for (RowId local : delta) {
      if (table.IsVisible(main_rows + local, txn)) {
        out->positions.push_back(main_rows + local);
      }
    }
  }
  if (query.projections.empty() && query.aggregates.empty()) {
    return Status::Ok();
  }
  ScopedSpan span(tracer, "query.materialize", request);
  const bool full_width = query.projections.size() == table.column_count();
  for (RowId row : out->positions) {
    if (full_width) {
      StatusOr<Row> tuple = table.ReconstructRow(row, threads, io);
      if (!tuple.ok()) return tuple.status();
    } else {
      for (ColumnId c : query.projections) {
        StatusOr<Value> v = table.GetValue(c, row, threads, io);
        if (!v.ok()) return v.status();
      }
    }
    for (const Aggregate& agg : query.aggregates) {
      if (agg.kind == Aggregate::Kind::kCount) continue;
      StatusOr<Value> v = table.GetValue(agg.column, row, threads, io);
      if (!v.ok()) return v.status();
    }
  }
  return Status::Ok();
}

}  // namespace

void ReplayQueries(TieredTable* table, const std::vector<Query>& queries,
                   uint32_t threads, Tracer* tracer, RunReport* report) {
  const Transaction txn = table->Begin();
  PhaseVector phase_sum;
  uint64_t examined = 0, results = 0, mismatches = 0;
  uint64_t morsels = 0, morsels_pruned = 0;
  // Every execution gets a private cold page cache of the table's cache
  // size with a device stream seeded by the query's index (as serving
  // sessions do), so the simulated phases repeat exactly for a seed.
  SecondaryStore& store = table->store();
  const size_t frames = table->buffers().frame_count();
  for (size_t i = 0; i < queries.size(); ++i) {
    PhaseVector phases;
    BufferManager ref_cache(&store, frames);
    SecondaryStore::ReadStream ref_stream = store.MakeStream(i);
    ref_cache.set_stream(&ref_stream);
    ExecOptions opts;
    opts.threads = threads;
    opts.phases = &phases;
    opts.buffers = &ref_cache;
    const QueryResult ref = table->executor().Execute(txn, queries[i], opts);
    for (size_t p = 0; p < kQueryPhaseCount; ++p) {
      phase_sum.ns[p] += phases.ns[p];
    }
    BufferManager replay_cache(&store, frames);
    SecondaryStore::ReadStream replay_stream = store.MakeStream(i);
    replay_cache.set_stream(&replay_stream);
    ReplayOutcome outcome;
    IoStats io;
    const Status status = ReplayOne(*table, tracer, i + 1, txn, queries[i],
                                    threads, &replay_cache, &outcome, &io);
    if (!status.ok() || !ref.status.ok() ||
        outcome.positions != ref.positions ||
        outcome.candidates != ref.candidate_trace) {
      ++mismatches;
    }
    examined += outcome.examined;
    results += ref.positions.size();
    morsels += outcome.mrc_morsels;
    morsels_pruned += outcome.mrc_morsels_pruned;
  }
  const std::map<std::string, uint64_t> self = tracer->SelfTimeNs();
  auto self_ns = [&](const char* name) {
    auto it = self.find(name);
    return it == self.end() ? 0.0 : double(it->second);
  };
  uint64_t execute_ns = 0;
  for (const Span& span : tracer->spans()) {
    if (std::strcmp(span.name, "query.execute") == 0) {
      execute_ns += span.end_ns - span.start_ns;
    }
  }
  const double n = std::max<double>(1.0, double(queries.size()));
  const uint64_t samples = queries.size();
  report->Set("query.execute_ms", double(execute_ns) / n / 1e6, "ms", samples);
  report->Set("query.scan_ms", self_ns("query.scan") / n / 1e6, "ms", samples);
  report->Set("query.probe_ms", self_ns("query.probe") / n / 1e6, "ms",
              samples);
  report->Set("query.delta_ms", self_ns("query.delta") / n / 1e6, "ms",
              samples);
  report->Set("query.materialize_ms", self_ns("query.materialize") / n / 1e6,
              "ms", samples);
  report->Set("query.self_ms", self_ns("query.execute") / n / 1e6, "ms",
              samples);
  report->Set("query.rows_examined_per_result",
              double(examined) / double(std::max<uint64_t>(1, results)),
              "ratio");
  report->Set("query.replay_mismatches", double(mismatches), "count");
  report->Check("replay_matches_executor", mismatches == 0);
  report->Set("storage.morsels_pruned_ratio",
              morsels == 0 ? 0.0 : double(morsels_pruned) / double(morsels),
              "ratio");

  const double scan_probe = double(phase_sum[QueryPhase::kScanProbe]);
  const double delta = double(phase_sum[QueryPhase::kDelta]);
  const double materialize = double(phase_sum[QueryPhase::kMaterialize]);
  const double store_io = double(phase_sum[QueryPhase::kStoreIo]) +
                          double(phase_sum[QueryPhase::kRetryBackoff]);
  report->Set("query.sim_scan_probe_us", scan_probe / n / 1e3, "us", samples);
  report->Set("query.sim_delta_us", delta / n / 1e3, "us", samples);
  report->Set("query.sim_materialize_us", materialize / n / 1e3, "us",
              samples);
  report->Set("query.sim_store_io_us", store_io / n / 1e3, "us", samples);
  auto ratio = [](double real, double sim) {
    return sim <= 0.0 ? 0.0 : real / sim;
  };
  report->Set("query.model_error.scan_probe",
              ratio(self_ns("query.scan") + self_ns("query.probe"),
                    scan_probe + store_io),
              "ratio");
  report->Set("query.model_error.delta", ratio(self_ns("query.delta"), delta),
              "ratio");
  report->Set("query.model_error.materialize",
              ratio(self_ns("query.materialize"), materialize), "ratio");
  report->Set("query.model_error.total",
              ratio(double(execute_ns),
                    scan_probe + delta + materialize + store_io),
              "ratio");
}

void MeasureStorageKernels(const TieredTable& table, RunReport* report) {
  const Table& t = table.table();
  const DictionaryColumn<int32_t>* column = nullptr;
  for (ColumnId c = 0; c < t.column_count(); ++c) {
    const auto* mrc = dynamic_cast<const DictionaryColumn<int32_t>*>(t.mrc(c));
    if (mrc == nullptr || mrc->size() == 0) continue;
    if (column == nullptr ||
        mrc->codes().MemoryUsage() > column->codes().MemoryUsage()) {
      column = mrc;
    }
  }
  if (column == nullptr) return;
  const BitPackedVector& codes = column->codes();
  const double bytes = double(codes.MemoryUsage());
  const Value probe = column->GetValue(column->size() / 2);
  // Kernel rate, not data skipping: zone maps off for the duration.
  const bool zone_maps = ZoneMapsEnabled();
  SetZoneMapsEnabled(false);
  auto scan_gbps = [&](uint32_t threads) {
    std::vector<double> rates;
    for (int rep = 0; rep < 15; ++rep) {
      PositionList out;
      const uint64_t start = NowNs();
      ParallelScanColumn(*column, &probe, &probe, threads, &out);
      rates.push_back(bytes / double(NowNs() - start));
    }
    return Median(rates);
  };
  const double gbps_1 = scan_gbps(1);
  const double gbps_4 = scan_gbps(4);
  SetZoneMapsEnabled(zone_maps);
  std::vector<uint8_t> src(size_t(bytes), 1);
  std::vector<uint8_t> dst(src.size());
  std::vector<double> copy_rates;
  for (int rep = 0; rep < 15; ++rep) {
    const uint64_t start = NowNs();
    std::memcpy(dst.data(), src.data(), src.size());
    copy_rates.push_back(bytes / double(NowNs() - start));
    src[size_t(rep) % src.size()] = dst[src.size() / 2];
  }
  const double copy_gbps = Median(copy_rates);
  std::vector<uint64_t> decoded(codes.size());
  std::vector<double> decode_ns;
  for (int rep = 0; rep < 15; ++rep) {
    const uint64_t start = NowNs();
    codes.DecodeRange(0, codes.size(), decoded.data());
    decode_ns.push_back(double(NowNs() - start) / double(codes.size()));
  }
  report->Set("storage.mrc_scan_gbps_1t", gbps_1, "GB/s", 15);
  report->Set("storage.mrc_scan_gbps_4t", gbps_4, "GB/s", 15);
  report->Set("storage.mrc_scan_roofline_pct", 100.0 * gbps_1 / copy_gbps,
              "%", 15);
  report->Set("storage.decode_ns_per_value", Median(decode_ns), "ns", 15);
}

void ReportIo(const IoStats& io, uint64_t queries, RunReport* report) {
  const double n = double(std::max<uint64_t>(1, queries));
  const double touched = double(io.page_reads + io.cache_hits);
  report->Set("storage.pages_pruned_ratio",
              io.pages_pruned == 0
                  ? 0.0
                  : double(io.pages_pruned) /
                        (double(io.pages_pruned) + touched),
              "ratio");
  report->Set("storage.sscg_pages_per_query", touched / n, "count");
  report->Set("tiering.buffer_hit_ratio",
              touched == 0 ? 0.0 : double(io.cache_hits) / touched, "ratio");
  report->Set("tiering.page_reads_per_query", double(io.page_reads) / n,
              "count");
  report->Set("tiering.device_share",
              io.TotalNs() == 0 ? 0.0
                                : double(io.device_ns) / double(io.TotalNs()),
              "ratio");
}

}  // namespace htapbench
