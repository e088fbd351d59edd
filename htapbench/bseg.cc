// olap_scan and tuple_fetch: closed-loop, single-client workloads over one
// wide BSEG-profile table on CSSD, placed by the advisor (paper Fig. 2).
//
// Set-up generates the table, records a warm-up of the template mix in the
// plan cache at the all-DRAM placement, asks Advisor::RecommendRelative for
// a placement at a fixed relative budget, and applies it (which sizes the
// page cache to 2 % of the SSCG). The table shape and the warm-up are fixed,
// so every seed measures the same placement; the seed draws the query
// stream.
//
// olap_scan: filter + aggregate queries instantiated from
// GenerateEnterpriseWorkload's skewed templates. tuple_fetch: doc-number ranges of 10..1000 rows at
// Zipf-skewed positions, projecting every attribute (full-width tuple
// reconstruction). Both run single-threaded queries (see kQueryThreads).
//
// Each pass runs the seeded query stream until both `seconds` have elapsed
// and the first kPrefix queries are done; simulated-clock and IoStats
// figures come from that fixed prefix, so they repeat exactly for a seed.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>

#include "common/random.h"
#include "core/advisor.h"
#include "workload/enterprise.h"
#include "workloads.h"

namespace htapbench {

using namespace hytap;

namespace {

constexpr size_t kRows = 200'000;
constexpr size_t kAttributes = 48;
/// Seed of the table shape (data, templates, warm-up) — fixed so the
/// placement under test is the same for every run seed.
constexpr uint64_t kShapeSeed = 20180416;
constexpr size_t kWarmupQueries = 240;
constexpr double kRelativeBudget = 0.3;
/// tuple_fetch key space: doc-number blocks drawn Zipf(1.0); the hottest
/// blocks fit the 2 % page cache, the tail does not.
constexpr size_t kFetchBlockRows = 1000;
/// Queries run on the client thread. With 4-way intra-query parallelism,
/// every query hands morsels to pool threads; on a shared 4-vCPU VM the
/// wake-up latency of those hand-offs moved olap_scan's p50 by 27-58 %
/// between runs (tuple_fetch, single-threaded, stayed within 1 %). The
/// 4-thread scan kernel rate is still measured (storage.mrc_scan_gbps_4t).
constexpr uint32_t kQueryThreads = 1;

EnterpriseProfile Profile() {
  EnterpriseProfile profile = BsegProfile();
  profile.attribute_count = kAttributes;
  profile.filtered_count = 16;
  profile.hot_filtered_count = 6;
  profile.template_count = 24;
  return profile;
}

/// The generated rows as a flat int32 matrix — the oracle's copy.
struct Data {
  std::vector<int32_t> cells;  // row-major, kAttributes per row
  std::vector<int32_t> cardinality;
  int32_t at(size_t row, size_t col) const {
    return cells[row * kAttributes + col];
  }
};

/// Instantiates a template: document-number ranges over ~0.2-5 % of the
/// documents, value bands over 5-30 % of each other column's domain.
Query InstantiateTemplate(const QueryTemplate& tmpl, const Data& data,
                          const std::vector<bool>& placement, Rng& rng) {
  Query q;
  for (uint32_t c : tmpl.columns) {
    const int32_t card = data.cardinality[c];
    const double share =
        c == 0 ? std::exp(rng.NextDouble(std::log(0.002), std::log(0.05)))
               : rng.NextDouble(0.05, 0.3);
    const int32_t width = std::max<int32_t>(1, int32_t(share * card));
    const int32_t lo = int32_t(rng.NextBounded(uint64_t(
        std::max<int32_t>(1, card - width + 1))));
    q.predicates.push_back(
        Predicate::Between(c, Value(lo), Value(lo + width - 1)));
  }
  q.aggregates.push_back(Aggregate::Count());
  for (uint32_t c : tmpl.columns) {
    if (placement.empty() || placement[c]) {
      q.aggregates.push_back(Aggregate::Sum(c));
      break;
    }
  }
  return q;
}

size_t PickTemplate(const Workload& workload, double total, Rng& rng) {
  double pick = rng.NextDouble() * total;
  for (size_t j = 0; j < workload.queries.size(); ++j) {
    pick -= workload.queries[j].frequency;
    if (pick < 0) return j;
  }
  return workload.queries.size() - 1;
}

struct Setup {
  std::unique_ptr<TieredTable> table;
  Workload templates;
  Data data;
};

/// Builds the placed table. `clock` (may be null) ticks between steps.
Setup BuildTable(Tracer* tracer, RunReport* report, ScaledCpuClock* clock) {
  auto tick = [clock] {
    if (clock != nullptr) clock->Tick();
  };
  Setup setup;
  const EnterpriseProfile profile = Profile();
  uint64_t t0 = NowNs();
  std::vector<Row> rows;
  {
    ScopedSpan span(tracer, "workload.generate");
    setup.templates = GenerateEnterpriseWorkload(profile, kShapeSeed);
    rows = GenerateEnterpriseRows(profile, kRows, kShapeSeed);
  }
  const double generate_s = double(NowNs() - t0) / 1e9;
  tick();
  t0 = NowNs();
  {
    ScopedSpan span(tracer, "storage.load");
    TieredTableOptions options;
    options.device = DeviceKind::kCssd;
    options.timing_seed = kShapeSeed;
    setup.table = std::make_unique<TieredTable>(
        "bseg", MakeEnterpriseSchema(profile), options);
    setup.table->Load(rows);
  }
  const double load_s = double(NowNs() - t0) / 1e9;
  tick();
  // Oracle copy and per-column domains (values are 0..cardinality-1).
  Data& data = setup.data;
  data.cardinality.assign(kAttributes, 1);
  data.cells.resize(kRows * kAttributes);
  for (size_t r = 0; r < rows.size(); ++r) {
    for (size_t c = 0; c < kAttributes; ++c) {
      const int32_t v = rows[r][c].AsInt32();
      data.cardinality[c] = std::max(data.cardinality[c], v + 1);
      data.cells[r * kAttributes + c] = v;
    }
  }
  rows.clear();
  rows.shrink_to_fit();
  tick();
  // Recorded warm-up of the template mix at the all-DRAM placement.
  t0 = NowNs();
  {
    ScopedSpan span(tracer, "core.warmup");
    Rng rng(kShapeSeed);
    double total = 0.0;
    for (const QueryTemplate& t : setup.templates.queries) {
      total += t.frequency;
    }
    const Transaction txn = setup.table->Begin();
    for (size_t i = 0; i < kWarmupQueries; ++i) {
      const size_t j = PickTemplate(setup.templates, total, rng);
      setup.table->Execute(
          txn, InstantiateTemplate(setup.templates.queries[j], data, {}, rng),
          1);
      tick();
    }
  }
  t0 = NowNs();
  Recommendation rec;
  {
    ScopedSpan span(tracer, "core.advisor");
    rec = Advisor().RecommendRelative(*setup.table, kRelativeBudget);
  }
  const double advisor_ms = double(NowNs() - t0) / 1e6;
  tick();
  t0 = NowNs();
  StatusOr<uint64_t> migrated = uint64_t(0);
  {
    ScopedSpan span(tracer, "core.apply_placement");
    migrated = setup.table->ApplyPlacement(rec.in_dram);
  }
  const double place_ms = double(NowNs() - t0) / 1e6;
  ReleaseFreedMemory();
  if (report != nullptr) {
    report->Check("setup_ok", migrated.ok());
    report->Set("workload.generate_s", generate_s, "s");
    report->Set("storage.load_s", load_s, "s");
    report->Set("core.advisor_ms", advisor_ms, "ms");
    report->Set("core.apply_placement_ms", place_ms, "ms");
    report->Set("core.migrated_mb",
                migrated.ok() ? double(*migrated) / 1e6 : 0.0, "MB");
  }
  return setup;
}

enum class Kind { kOlapScan, kTupleFetch };

/// olap_scan draws templates from a shuffled deck holding each template in
/// proportion to its frequency, so every kDeckSize queries carry exactly
/// the same template mix and the seed varies only order and constants. With
/// independent draws, the count of SSCG-scanning tail templates in the
/// prefix moved mean simulated cost by ~7.5 % between seeds.
constexpr size_t kDeckSize = 1000;

std::vector<size_t> TemplateDeck(const Workload& templates) {
  double total = 0.0;
  for (const QueryTemplate& t : templates.queries) total += t.frequency;
  // Largest-remainder rounding of the frequencies to kDeckSize cards.
  std::vector<size_t> count(templates.queries.size());
  std::vector<std::pair<double, size_t>> remainder;
  size_t dealt = 0;
  for (size_t j = 0; j < count.size(); ++j) {
    const double exact =
        templates.queries[j].frequency / total * double(kDeckSize);
    count[j] = size_t(exact);
    dealt += count[j];
    remainder.emplace_back(exact - double(count[j]), j);
  }
  std::sort(remainder.rbegin(), remainder.rend());
  for (size_t i = 0; dealt < kDeckSize; ++i, ++dealt) {
    ++count[remainder[i].second];
  }
  std::vector<size_t> deck;
  for (size_t j = 0; j < count.size(); ++j) deck.insert(deck.end(), count[j], j);
  return deck;
}

struct Stream {
  Kind kind;
  const Setup* setup;
  Rng rng;
  std::vector<size_t> deck;
  size_t dealt = 0;
  std::unique_ptr<ZipfGenerator> zipf;
  std::vector<uint64_t> block_of_rank;

  Stream(Kind k, const Setup* s, uint64_t seed)
      : kind(k),
        setup(s),
        rng(seed * 0x9e3779b97f4a7c15ull + 3),
        deck(TemplateDeck(s->templates)) {
    const size_t blocks = kRows / kFetchBlockRows;
    zipf = std::make_unique<ZipfGenerator>(blocks, 1.0);
    block_of_rank.resize(blocks);
    for (size_t b = 0; b < blocks; ++b) block_of_rank[b] = b;
    rng.Shuffle(block_of_rank);
  }

  Query Next() {
    if (kind == Kind::kOlapScan) {
      if (dealt % deck.size() == 0) rng.Shuffle(deck);
      const size_t j = deck[dealt++ % deck.size()];
      return InstantiateTemplate(setup->templates.queries[j], setup->data,
                                 setup->table->table().placement(), rng);
    }
    const uint64_t block = block_of_rank[zipf->Next(rng)];
    const int32_t length =
        int32_t(std::lround(10.0 * std::pow(100.0, rng.NextDouble())));
    const int32_t lo =
        int32_t(block * kFetchBlockRows +
                rng.NextBounded(kFetchBlockRows - size_t(length) / 2));
    Query q;
    q.predicates.push_back(
        Predicate::Between(0, Value(lo), Value(lo + length - 1)));
    for (ColumnId c = 0; c < kAttributes; ++c) q.projections.push_back(c);
    return q;
  }
};

/// Order-sensitive hash of everything a query returns: positions, projected
/// rows and aggregate values.
class Fingerprint {
 public:
  void Add(uint64_t v) {
    h_ ^= v + 0x9e3779b97f4a7c15ull + (h_ << 6) + (h_ >> 2);
  }
  void AddDouble(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    Add(bits);
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0;
};

uint64_t ResultFingerprint(const QueryResult& r) {
  Fingerprint f;
  f.Add(r.positions.size());
  for (RowId p : r.positions) f.Add(p);
  for (const Row& row : r.rows) {
    for (const Value& v : row) f.Add(uint64_t(uint32_t(v.AsInt32())));
  }
  for (size_t a = 0; a < r.aggregate_values.size(); ++a) {
    if (a == 0) {
      f.Add(uint64_t(r.aggregate_values[a].AsInt64()));
    } else {
      f.AddDouble(r.aggregate_values[a].AsDouble());
    }
  }
  return f.value();
}

/// The fingerprint of the correct result, by naive row-at-a-time evaluation
/// over the generated rows (ascending row order, like the executor's sums).
uint64_t OracleFingerprint(const Data& data, const Query& q) {
  PositionList expect;
  std::vector<double> sums(q.aggregates.size(), 0.0);
  for (size_t row = 0; row < kRows; ++row) {
    bool match = true;
    for (const Predicate& p : q.predicates) {
      const int32_t v = data.at(row, p.column);
      match &= v >= p.lo->AsInt32() && v <= p.hi->AsInt32();
    }
    if (!match) continue;
    expect.push_back(row);
    for (size_t a = 1; a < q.aggregates.size(); ++a) {
      sums[a] += double(data.at(row, q.aggregates[a].column));
    }
  }
  Fingerprint f;
  f.Add(expect.size());
  for (RowId p : expect) f.Add(p);
  for (RowId p : expect) {
    for (ColumnId c : q.projections) {
      f.Add(uint64_t(uint32_t(data.at(p, c))));
    }
  }
  for (size_t a = 0; a < q.aggregates.size(); ++a) {
    if (a == 0) {
      f.Add(uint64_t(expect.size()));
    } else {
      f.AddDouble(sums[a]);
    }
  }
  return f.value();
}

struct PassResult {
  std::vector<double> wall_ms;
  std::vector<double> sim_us;  // prefix only
  IoStats prefix_io;
  BufferStats prefix_buffers;
  uint64_t queries = 0, failed = 0;
  double wall_s = 0.0;
  ScaledCpuClock cpu;  // of the pass
  std::vector<Query> prefix_queries;
  /// Every kCheckEvery-th prefix query with its result's fingerprint.
  std::vector<std::pair<Query, uint64_t>> sampled;
};

constexpr size_t kCheckEvery = 25;

PassResult RunPass(Setup* setup, Kind kind, uint64_t seed, double seconds,
                   size_t prefix, Tracer* tracer) {
  PassResult r;
  TieredTable& table = *setup->table;
  Stream stream(kind, setup, seed);
  const Transaction txn = table.Begin();
  const BufferStats buffers_before = table.buffers().stats();
  const uint64_t start = NowNs();
  while (r.queries < prefix || NowNs() - start < uint64_t(seconds * 1e9)) {
    const Query q = stream.Next();
    const uint64_t t0 = NowNs();
    QueryResult result;
    {
      ScopedSpan span(tracer, "executor.execute", r.queries + 1);
      result = table.ExecuteUnrecorded(txn, q, kQueryThreads);
    }
    r.wall_ms.push_back(double(NowNs() - t0) / 1e6);
    if (!result.status.ok()) ++r.failed;
    if (r.queries < prefix) {
      r.sim_us.push_back(double(result.io.TotalNs()) / 1e3);
      r.prefix_io += result.io;
      r.prefix_queries.push_back(q);
      if (r.queries + 1 == prefix) {
        const BufferStats now = table.buffers().stats();
        r.prefix_buffers.evictions = now.evictions - buffers_before.evictions;
      }
      if (r.queries % kCheckEvery == 0) {
        r.sampled.emplace_back(q, ResultFingerprint(result));
      }
    }
    ++r.queries;
    r.cpu.Tick();
  }
  r.wall_s = double(NowNs() - start) / 1e9;
  r.cpu.Finish();
  return r;
}

/// Compares the sampled results with the oracle (after the timed pass).
uint64_t CountWrong(const Data& data, const PassResult& pass) {
  uint64_t wrong = 0;
  for (const auto& [query, fingerprint] : pass.sampled) {
    wrong += OracleFingerprint(data, query) != fingerprint;
  }
  return wrong;
}

RunReport RunBseg(const RunArgs& args, Kind kind) {
  RunReport report;
  const size_t prefix = kind == Kind::kOlapScan ? 4000 : 16000;
  Setup setup;
  if (args.trace) {
    setup = BuildTable(args.tracer, &report, nullptr);
  } else {
    MeasureSetup(kSetupRuns, &report, [&](ScaledCpuClock& clock) {
      setup = Setup();  // free the previous table before building anew
      setup = BuildTable(nullptr, nullptr, &clock);
    });
  }
  const PassResult base = RunPass(&setup, kind, args.seed, args.seconds,
                                  prefix, nullptr);
  const uint64_t wrong = CountWrong(setup.data, base);
  report.attempted = base.queries;
  report.failed = base.failed + wrong;
  report.Check("results_match_oracle", wrong == 0 && !base.sampled.empty());
  report.Check("no_failed_operations", base.failed == 0);
  const Table& t = setup.table->table();
  report.facts["queries"] = double(base.queries);
  report.facts["oracle_checked"] = double(base.sampled.size());
  report.facts["main_rows"] = double(t.main_row_count());
  size_t dram_columns = 0;
  for (ColumnId c = 0; c < t.column_count(); ++c) {
    dram_columns += t.location(c) == ColumnLocation::kDram;
  }
  report.facts["dram_columns"] = double(dram_columns);
  report.facts["sscg_bytes"] =
      t.sscg() == nullptr ? 0.0 : double(t.sscg()->StorageBytes());
  report.facts["page_cache_bytes"] =
      double(setup.table->buffers().frame_count() * kPageSize);
  if (!args.trace) {
    ReportQps(base.queries, base.cpu, &report);
    report.facts["op_p50_ms"] = Percentile(base.wall_ms, 0.5);
    report.Set("sim_us", Mean(base.sim_us), "us", base.sim_us.size());
    report.Set("rss_mb", ResidentMb(), "MB");
    return report;
  }
  ReportIo(base.prefix_io, prefix, &report);
  report.Set("tiering.evictions", double(base.prefix_buffers.evictions),
             "count");
  report.Set("error_ratio", double(report.failed) / double(base.queries),
             "ratio", base.queries);
  report.Set(kind == Kind::kOlapScan ? "olap_sim_us" : "oltp_sim_us",
             Mean(base.sim_us), "us", base.sim_us.size());
  const PassResult tr = RunPass(&setup, kind, args.seed, args.seconds, prefix,
                                args.tracer);
  report.Set("op_p50_ms", Percentile(base.wall_ms, 0.5), "ms",
             base.wall_ms.size());
  report.Set("op_p90_ms", Percentile(base.wall_ms, 0.9), "ms",
             base.wall_ms.size());
  report.Set("op_p99_ms", Percentile(base.wall_ms, 0.99), "ms",
             base.wall_ms.size());
  const double base_mean = base.wall_s / double(base.queries);
  const double traced_mean = tr.wall_s / double(tr.queries);
  report.Set("trace_overhead_pct",
             100.0 * (traced_mean - base_mean) / base_mean, "%");
  std::vector<Query> replay(base.prefix_queries.begin(),
                            base.prefix_queries.begin() +
                                std::min<size_t>(prefix, 1000));
  ReplayQueries(setup.table.get(), replay, kQueryThreads, args.tracer,
                &report);
  MeasureStorageKernels(*setup.table, &report);
  return report;
}

}  // namespace

RunReport RunOlapScan(const RunArgs& args) {
  return RunBseg(args, Kind::kOlapScan);
}

RunReport RunTupleFetch(const RunArgs& args) {
  return RunBseg(args, Kind::kTupleFetch);
}

}  // namespace htapbench
