// htap_serving: open-loop mixed OLTP/OLAP traffic through the serving front
// end (SessionManager) over one tiered ORDERLINE table.
//
// One generator thread walks a seed-generated schedule of Poisson arrivals
// at a fixed offered rate: TPC-C delivery reads (OLTP class), new-order
// inserts through TieredTable::Insert, and CH-19 scans (OLAP class). Reads
// and scans are submitted on schedule and their completion is observed by
// polling QuerySession::Done(); inserts run synchronously through the
// serving write gate. MergeDelta runs before the next operation once the
// delta holds more than 10 % of the main partition's rows. Latency counts
// from each operation's due time, so generator stalls (write gate, merges)
// show up in the operations that follow.
//
// The offered rate fixes the wall time of a pass, so completed operations
// per wall second would only restate it. qps is instead the engine's
// capacity: completed operations per CPU second the engine spent on them
// (session workers and their helpers, plus the generator's own time inside
// Submit, the write gate and MergeDelta; its idle polling is left out). The
// merge, a third of that time, runs on the generator thread, so its CPU
// time is scaled like a ScaledCpuClock segment: the calibration kernel runs
// right after it. The rest is not scaled; it is spent mostly on the session
// threads, where the kernel cannot run.

#include <sys/prctl.h>

#include <cmath>
#include <cstring>
#include <thread>
#include <unordered_map>

#include "common/metrics.h"
#include "common/random.h"
#include "serving/session_manager.h"
#include "workload/tpcc.h"
#include "workloads.h"

namespace htapbench {

using namespace hytap;

namespace {

constexpr uint32_t kWarehouses = 10;
constexpr uint32_t kDistricts = 10;
constexpr uint32_t kOrdersPerDistrict = 300;  // ~225k order lines
constexpr double kOfferedRate = 400.0;        // operations per second
/// Operation kinds are dealt from shuffled decks of 100: 55 delivery reads,
/// 43 new orders and 2 CH-19 scans. Every seed runs the same mix in its own
/// order. With independent draws, the number of CH-19 scans in a run (a
/// large share of the engine's CPU time) ranged 66-88 over five seeds.
constexpr uint32_t kDeckReads = 55;
constexpr uint32_t kDeckInserts = 43;
constexpr uint32_t kDeckScans = 2;
constexpr double kMergeDeltaShare = 0.10;
constexpr double kPrefillShare = 0.08;
constexpr size_t kMaxSessions = 3;
/// Admission queue: room for the backlog a merge stall leaves behind
/// (offered rate x ~1 s), so the backlog is queued rather than rejected.
constexpr size_t kQueueCapacity = 4096;
/// Completion poll interval of the generator.
constexpr uint64_t kPollNs = 20'000;
/// Delivery reads target one of the district's most recent orders; one read
/// in kRecentOrders targets the next order id, not yet inserted at submit.
constexpr uint32_t kRecentOrders = 12;

enum class OpKind : uint8_t { kRead, kInsert, kOlap };

struct Op {
  OpKind kind = OpKind::kRead;
  uint64_t due_ns = 0;  // offset from the start of the pass
  Query query;          // kRead / kOlap
  std::vector<Row> rows;  // kInsert: one order's lines, one transaction
  /// kRead: order lines committed before submit, and their content hash.
  uint64_t expect_lines = 0;
  uint64_t expect_hash = 0;
};

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Order-independent hash of a delivery read's projected line
/// (ol_number, ol_i_id, ol_amount, ol_delivery_d).
uint64_t LineHash(const Value& number, const Value& item, const Value& amount,
                  const Value& delivery) {
  const double a = amount.AsDouble();
  uint64_t bits = 0;
  std::memcpy(&bits, &a, sizeof bits);
  return Mix(Mix(Mix(uint64_t(number.AsInt32())) ^ uint64_t(item.AsInt32())) ^
             bits) ^
         Mix(uint64_t(delivery.AsInt64()));
}

uint64_t OrderKey(int32_t w, int32_t d, int32_t o) {
  return (uint64_t(w) << 40) | (uint64_t(d) << 20) | uint64_t(o);
}

OrderlineParams Params(uint64_t seed) {
  OrderlineParams params;
  params.warehouses = kWarehouses;
  params.districts_per_warehouse = kDistricts;
  params.orders_per_district = kOrdersPerDistrict;
  params.seed = seed;
  return params;
}

std::vector<bool> PaperPlacement() {
  // Paper w = 0.2: primary key + ol_i_id stay DRAM-resident MRCs.
  std::vector<bool> in_dram(10, false);
  for (ColumnId c : OrderlinePrimaryKey()) in_dram[c] = true;
  in_dram[kOlIId] = true;
  return in_dram;
}

/// Appends one new order's lines (TPC-C: 5..15) to `rows` and folds them
/// into the oracle.
void NewOrder(int32_t w, int32_t d, int32_t o, Rng& rng, std::vector<Row>* rows,
              std::pair<uint64_t, uint64_t>* oracle) {
  const uint32_t lines = 5 + uint32_t(rng.NextBounded(11));
  for (uint32_t l = 1; l <= lines; ++l) {
    Row row;
    row.reserve(10);
    row.emplace_back(o);
    row.emplace_back(d);
    row.emplace_back(w);
    row.emplace_back(int32_t(l));
    row.emplace_back(int32_t(1 + rng.NextBounded(1000)));
    row.emplace_back(w);
    row.emplace_back(int64_t(1522540800) + int64_t(rng.NextBounded(86400)));
    row.emplace_back(int32_t(1 + rng.NextBounded(10)));
    row.emplace_back(rng.NextDouble(0.01, 9999.99));
    row.emplace_back(std::string("dist-info-") +
                     std::to_string(rng.NextBounded(100000)));
    oracle->first += 1;
    oracle->second += LineHash(row[kOlNumber], row[kOlIId], row[kOlAmount],
                               row[kOlDeliveryD]);
    rows->push_back(std::move(row));
  }
}

struct Schedule {
  /// New orders committed into the delta at set-up, so the delta starts at
  /// kPrefillShare of main and the first merge falls inside the run.
  std::vector<Row> prefill;
  std::vector<Op> ops;
};

/// Builds the prefill and the schedule: arrival times, operation kinds,
/// insert payloads and the expected result of every delivery read (the
/// order lines committed before it is submitted, since inserts commit
/// synchronously in schedule order).
Schedule MakeSchedule(uint64_t seed, size_t count) {
  std::unordered_map<uint64_t, std::pair<uint64_t, uint64_t>> orders;
  const std::vector<Row> base_rows = GenerateOrderlineRows(Params(seed));
  for (const Row& row : base_rows) {
    auto& entry = orders[OrderKey(row[kOlWId].AsInt32(), row[kOlDId].AsInt32(),
                                  row[kOlOId].AsInt32())];
    entry.first += 1;
    entry.second += LineHash(row[kOlNumber], row[kOlIId], row[kOlAmount],
                             row[kOlDeliveryD]);
  }
  std::vector<int32_t> next_order(kWarehouses * kDistricts,
                                  int32_t(kOrdersPerDistrict) + 1);
  Rng rng(seed * 0x2545f4914f6cdd1dull + 11);
  auto pick_district = [&](int32_t* w, int32_t* d) -> int32_t& {
    *w = 1 + int32_t(rng.NextBounded(kWarehouses));
    *d = 1 + int32_t(rng.NextBounded(kDistricts));
    return next_order[size_t((*w - 1) * kDistricts + (*d - 1))];
  };
  Schedule schedule;
  while (double(schedule.prefill.size()) <
         kPrefillShare * double(base_rows.size())) {
    int32_t w = 0, d = 0;
    const int32_t o = pick_district(&w, &d)++;
    NewOrder(w, d, o, rng, &schedule.prefill, &orders[OrderKey(w, d, o)]);
  }
  schedule.ops.resize(count);
  std::vector<OpKind> deck;
  double t_s = 0.0;
  for (Op& op : schedule.ops) {
    if (deck.empty()) {
      deck.insert(deck.end(), kDeckReads, OpKind::kRead);
      deck.insert(deck.end(), kDeckInserts, OpKind::kInsert);
      deck.insert(deck.end(), kDeckScans, OpKind::kOlap);
      rng.Shuffle(deck);
    }
    op.kind = deck.back();
    deck.pop_back();
    t_s += -std::log(1.0 - rng.NextDouble()) / kOfferedRate;
    op.due_ns = uint64_t(t_s * 1e9);
    int32_t w = 0, d = 0;
    int32_t& next = pick_district(&w, &d);
    if (op.kind == OpKind::kRead) {
      const int32_t o = rng.NextBounded(kRecentOrders) == 0
                            ? next
                            : next - 1 - int32_t(rng.NextBounded(kRecentOrders));
      op.query = DeliveryQuery(w, d, o);
      auto it = orders.find(OrderKey(w, d, o));
      if (it != orders.end()) {
        op.expect_lines = it->second.first;
        op.expect_hash = it->second.second;
      }
    } else if (op.kind == OpKind::kInsert) {
      const int32_t o = next++;
      NewOrder(w, d, o, rng, &op.rows, &orders[OrderKey(w, d, o)]);
    } else {
      const int32_t item_lo = 1 + int32_t(rng.NextBounded(500));
      const int32_t quantity = 1 + int32_t(rng.NextBounded(10));
      op.query = ChQuery19(w, item_lo, item_lo + 499, quantity, quantity);
    }
  }
  return schedule;
}

struct Setup {
  std::unique_ptr<TieredTable> table;
};

/// Builds the placed, prefilled table. `clock` (may be null) ticks between
/// steps.
Setup BuildTable(uint64_t seed, const std::vector<Row>& prefill,
                 Tracer* tracer, RunReport* report, ScaledCpuClock* clock) {
  auto tick = [clock] {
    if (clock != nullptr) clock->Tick();
  };
  Setup setup;
  uint64_t t0 = NowNs();
  std::vector<Row> rows;
  {
    ScopedSpan span(tracer, "workload.generate");
    rows = GenerateOrderlineRows(Params(seed));
  }
  const double generate_s = double(NowNs() - t0) / 1e9;
  tick();
  t0 = NowNs();
  {
    ScopedSpan span(tracer, "storage.load");
    TieredTableOptions options;
    options.device = DeviceKind::kCssd;
    options.timing_seed = seed;
    setup.table = std::make_unique<TieredTable>("orderline", OrderlineSchema(),
                                                options);
    setup.table->Load(rows);
  }
  const double load_s = double(NowNs() - t0) / 1e9;
  tick();
  t0 = NowNs();
  StatusOr<uint64_t> migrated = uint64_t(0);
  {
    ScopedSpan span(tracer, "core.apply_placement");
    migrated = setup.table->ApplyPlacement(PaperPlacement());
  }
  const double place_ms = double(NowNs() - t0) / 1e6;
  tick();
  bool prefilled = true;
  {
    ScopedSpan span(tracer, "storage.prefill");
    Transaction txn = setup.table->Begin();
    for (const Row& row : prefill) {
      prefilled &= setup.table->Insert(txn, row).ok();
      tick();
    }
    setup.table->Commit(&txn);
  }
  SessionOptions so;
  so.max_sessions = kMaxSessions;
  so.queue_capacity = kQueueCapacity;
  setup.table->EnableServing(so);
  ReleaseFreedMemory();
  if (report != nullptr) {
    report->Check("setup_ok", migrated.ok() && prefilled);
    report->Set("workload.generate_s", generate_s, "s");
    report->Set("storage.load_s", load_s, "s");
    report->Set("core.apply_placement_ms", place_ms, "ms");
    report->Set("core.migrated_mb",
                migrated.ok() ? double(*migrated) / 1e6 : 0.0, "MB");
  }
  return setup;
}

struct PassResult {
  std::vector<double> read_ms, write_ms, olap_ms, late_ms;
  std::vector<double> read_sim_us, olap_sim_us;
  std::vector<double> submit_us, gate_ms, commit_us, merge_ms;
  uint64_t attempted = 0, completed = 0, failed = 0, rejected = 0;
  uint64_t wrong_reads = 0;
  IoStats io;
  uint64_t queries = 0;
  double wall_s = 0.0;
  /// CPU seconds the engine spent on the pass (see the file comment).
  double engine_cpu_s = 0.0;
  /// Mean generator wall time per operation inside Submit or the write gate.
  double generator_op_us = 0.0;
};

PassResult RunPass(TieredTable* table, const std::vector<Op>& ops,
                   Tracer* tracer) {
  PassResult r;
  struct Pending {
    size_t op;
    SessionHandle session;
  };
  std::vector<Pending> pending;
  auto finish = [&](const Pending& p, uint64_t now, uint64_t start) {
    const Op& op = ops[p.op];
    QueryResult result = p.session->Await();
    const double latency_ms = double(now - (start + op.due_ns)) / 1e6;
    if (!result.status.ok()) {
      ++r.failed;
      return;
    }
    ++r.completed;
    ++r.queries;
    r.io += result.io;
    if (op.kind == OpKind::kRead) {
      uint64_t hash = 0;
      for (const Row& row : result.rows) {
        hash += LineHash(row[0], row[1], row[2], row[3]);
      }
      if (result.rows.size() != op.expect_lines || hash != op.expect_hash) {
        ++r.wrong_reads;
        ++r.failed;
      }
      r.read_ms.push_back(latency_ms);
      r.read_sim_us.push_back(double(result.io.TotalNs()) / 1e3);
    } else {
      r.olap_ms.push_back(latency_ms);
      r.olap_sim_us.push_back(double(result.io.TotalNs()) / 1e3);
    }
  };
  // The default 50 us timer slack would stretch every poll sleep and shift
  // measured latencies by the slack.
  prctl(PR_SET_TIMERSLACK, 1000UL);
  const uint64_t start = NowNs() + 1'000'000;
  const uint64_t process_cpu_start = ProcessCpuNs();
  const uint64_t generator_cpu_start = ThreadCpuNs();
  uint64_t generator_engine_cpu_ns = 0;  // unscaled, merges excluded
  double merge_scaled_cpu_ns = 0.0;
  size_t next = 0;
  while (next < ops.size() || !pending.empty()) {
    const uint64_t now = NowNs();
    for (size_t k = 0; k < pending.size();) {
      if (pending[k].session->Done()) {
        finish(pending[k], now, start);
        pending[k] = std::move(pending.back());
        pending.pop_back();
      } else {
        ++k;
      }
    }
    if (next < ops.size() && now >= start + ops[next].due_ns) {
      const Op& op = ops[next];
      const size_t index = next++;
      ++r.attempted;
      Table& t = table->table();
      if (double(t.delta_row_count()) >
          kMergeDeltaShare * double(t.main_row_count())) {
        const uint64_t t0 = NowNs();
        const uint64_t cpu0 = ThreadCpuNs();
        Status merged;
        {
          ScopedSpan span(tracer, "core.merge", index + 1);
          merged = table->MergeDelta();
        }
        const double merge_cpu_ns = double(ThreadCpuNs() - cpu0);
        r.merge_ms.push_back(double(NowNs() - t0) / 1e6);
        merge_scaled_cpu_ns += merge_cpu_ns *
                               ScaledCpuClock::kReferenceCalibrationMs /
                               CalibrationMs();
        if (!merged.ok()) ++r.failed;
      }
      const uint64_t begin = NowNs();
      const uint64_t begin_cpu = ThreadCpuNs();
      r.late_ms.push_back(double(begin - (start + op.due_ns)) / 1e6);
      if (op.kind == OpKind::kInsert) {
        ScopedSpan span(tracer, "serving.write", index + 1);
        Transaction txn = table->Begin();
        bool ok = true;
        for (const Row& row : op.rows) ok &= table->Insert(txn, row).ok();
        const uint64_t commit_start = NowNs();
        {
          ScopedSpan commit(tracer, "txn.commit", index + 1);
          table->Commit(&txn);
        }
        const uint64_t end = NowNs();
        generator_engine_cpu_ns += ThreadCpuNs() - begin_cpu;
        r.commit_us.push_back(double(end - commit_start) / 1e3);
        r.gate_ms.push_back(double(end - begin) / 1e6);
        r.write_ms.push_back(double(end - (start + op.due_ns)) / 1e6);
        if (ok) {
          ++r.completed;
        } else {
          ++r.failed;
        }
      } else {
        SubmitOptions so;
        so.query_class =
            op.kind == OpKind::kRead ? QueryClass::kOltp : QueryClass::kOlap;
        auto submit = [&] {
          ScopedSpan span(tracer, "serving.submit", index + 1);
          return table->Submit(op.query, so);
        };
        StatusOr<SessionHandle> session = submit();
        r.submit_us.push_back(double(NowNs() - begin) / 1e3);
        generator_engine_cpu_ns += ThreadCpuNs() - begin_cpu;
        if (session.ok()) {
          pending.push_back({index, *session});
        } else {
          ++r.rejected;
          ++r.failed;
        }
      }
      continue;
    }
    // Short sleeps (with the timer slack set below) stamp completions
    // within ~30 us without taking a core from the sessions; yield only
    // right before the next operation is due.
    const uint64_t wake = next < ops.size() ? start + ops[next].due_ns
                                            : now + kPollNs;
    if (wake > now + 2 * kPollNs) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(kPollNs));
    } else {
      std::this_thread::yield();
    }
  }
  r.wall_s = double(NowNs() - start) / 1e9;
  const uint64_t generator_cpu_ns = ThreadCpuNs() - generator_cpu_start;
  r.engine_cpu_s = (double(ProcessCpuNs() - process_cpu_start -
                           generator_cpu_ns + generator_engine_cpu_ns) +
                    merge_scaled_cpu_ns) /
                   1e9;
  double generator_us = 0.0;
  for (double us : r.submit_us) generator_us += us;
  for (double ms : r.gate_ms) generator_us += ms * 1e3;
  r.generator_op_us =
      generator_us / double(r.submit_us.size() + r.gate_ms.size());
  return r;
}

/// Median (ms) of the histogram samples recorded between two registry
/// snapshots (the registry is process-global and cumulative), with the
/// sample count.
std::pair<double, uint64_t> WindowMedianMs(const MetricsSnapshot& before,
                                           const MetricsSnapshot& after,
                                           const std::string& name) {
  auto a = after.histograms.find(name);
  if (a == after.histograms.end()) return {0.0, 0};
  MetricsSnapshot::HistogramData window = a->second;
  auto b = before.histograms.find(name);
  if (b != before.histograms.end()) {
    for (size_t i = 0; i < window.counts.size(); ++i) {
      window.counts[i] -= b->second.counts[i];
    }
    window.count -= b->second.count;
    window.sum -= b->second.sum;
  }
  return {double(window.Quantile(0.5)) / 1e6, window.count};
}

}  // namespace

RunReport RunHtapServing(const RunArgs& args) {
  RunReport report;
  const size_t op_count = size_t(kOfferedRate * args.seconds);
  const Schedule schedule = MakeSchedule(args.seed, op_count);
  const std::vector<Op>& ops = schedule.ops;
  Setup setup;
  if (args.trace) {
    setup = BuildTable(args.seed, schedule.prefill, nullptr, nullptr, nullptr);
  } else {
    MeasureSetup(kSetupRuns, &report, [&](ScaledCpuClock& clock) {
      setup = Setup();  // free the previous table before building anew
      setup =
          BuildTable(args.seed, schedule.prefill, nullptr, nullptr, &clock);
    });
  }

  const PassResult base = RunPass(setup.table.get(), ops, nullptr);
  report.attempted = base.attempted;
  report.failed = base.failed;
  report.Check("reads_see_committed_inserts", base.wrong_reads == 0);
  report.Check("no_failed_operations", base.failed == 0);
  report.facts["reads"] = double(base.read_ms.size());
  report.facts["writes"] = double(base.write_ms.size());
  report.facts["olap"] = double(base.olap_ms.size());
  report.facts["merges"] = double(base.merge_ms.size());
  report.facts["main_rows"] = double(setup.table->table().main_row_count());
  if (const Sscg* sscg = setup.table->table().sscg()) {
    report.facts["sscg_bytes"] = double(sscg->StorageBytes());
  }
  report.facts["session_frames"] = double(SessionOptions().session_frames);
  for (double q : {0.75, 0.95, 0.99}) {
    report.facts["read_p" + std::to_string(int(q * 100)) + "_ms"] =
        Percentile(base.read_ms, q);
  }
  report.facts["merge_ms"] = base.merge_ms.empty() ? 0.0 : base.merge_ms[0];
  if (!args.trace) {
    report.Set("qps", double(base.completed) / base.engine_cpu_s, "1/s",
               base.completed);
    report.facts["op_p50_ms"] = Percentile(base.read_ms, 0.5);
    report.Set("sim_us", Mean(base.read_sim_us), "us",
               base.read_sim_us.size());
    report.Set("rss_mb", ResidentMb(), "MB");
    return report;
  }

  // Deterministic per-layer counts come from the untraced pass.
  ReportIo(base.io, base.queries, &report);
  report.Set("error_ratio", double(base.failed) / double(base.attempted),
             "ratio", base.attempted);
  report.Set("oltp_sim_us", Mean(base.read_sim_us), "us",
             base.read_sim_us.size());
  report.Set("olap_sim_us", Mean(base.olap_sim_us), "us",
             base.olap_sim_us.size());
  setup.table.reset();

  // Traced pass on a fresh table (the untraced pass changed its state).
  Setup traced =
      BuildTable(args.seed, schedule.prefill, args.tracer, &report, nullptr);
  const MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
  const PassResult tr = RunPass(traced.table.get(), ops, args.tracer);
  const MetricsSnapshot after = MetricsRegistry::Global().Snapshot();
  report.Check("reads_see_committed_inserts", tr.wrong_reads == 0);
  report.Set("serving.submit_us", Mean(tr.submit_us), "us",
             tr.submit_us.size());
  for (const char* cls : {"oltp", "olap"}) {
    const auto [median_ms, samples] = WindowMedianMs(
        before, after,
        std::string("hytap_session_") + cls + "_queue_wait_ns");
    report.Set(std::string("serving.") + cls + "_wait_p50_ms", median_ms, "ms",
               samples);
  }
  report.Set("serving.write_gate_ms", Mean(tr.gate_ms), "ms",
             tr.gate_ms.size());
  report.Set("txn.commit_us", Mean(tr.commit_us), "us", tr.commit_us.size());
  report.Set("core.merge_ms", Mean(tr.merge_ms), "ms", tr.merge_ms.size());
  report.Set("core.merges", double(tr.merge_ms.size()), "count");
  report.Set("serving.read_p99_ms", Percentile(tr.read_ms, 0.99), "ms",
             tr.read_ms.size());
  report.Set("serving.write_p50_ms", Percentile(tr.write_ms, 0.5), "ms",
             tr.write_ms.size());
  report.Set("serving.write_p99_ms", Percentile(tr.write_ms, 0.99), "ms",
             tr.write_ms.size());
  report.Set("serving.olap_p50_ms", Percentile(tr.olap_ms, 0.5), "ms",
             tr.olap_ms.size());
  report.Set("serving.olap_p99_ms", Percentile(tr.olap_ms, 0.99), "ms",
             tr.olap_ms.size());
  report.Set("serving.late_p99_ms", Percentile(tr.late_ms, 0.99), "ms",
             tr.late_ms.size());
  report.Set("serving.rejected", double(tr.rejected), "count");
  report.Set("op_p50_ms", Percentile(base.read_ms, 0.5), "ms",
             base.read_ms.size());
  report.Set("op_p90_ms", Percentile(base.read_ms, 0.9), "ms",
             base.read_ms.size());
  report.Set("op_p99_ms", Percentile(base.read_ms, 0.99), "ms",
             base.read_ms.size());
  // The tracer wraps only the generator's calls, so its overhead is the
  // change in the generator's time per operation inside them.
  report.Set("trace_overhead_pct",
             100.0 * (tr.generator_op_us - base.generator_op_us) /
                 base.generator_op_us,
             "%");

  // query.* from a serial replay of the schedule's queries at the final
  // table state (bounded: every scan, the first 400 reads).
  std::vector<Query> replay;
  size_t reads = 0;
  for (const Op& op : ops) {
    if (op.kind == OpKind::kOlap || (op.kind == OpKind::kRead && reads++ < 400)) {
      replay.push_back(op.query);
    }
  }
  ReplayQueries(traced.table.get(), replay, 1, args.tracer, &report);
  MeasureStorageKernels(*traced.table, &report);
  return report;
}

}  // namespace htapbench
