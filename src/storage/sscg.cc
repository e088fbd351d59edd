#include "storage/sscg.h"

#include <cstring>
#include <limits>

#include "common/assert.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "storage/zone_map.h"

namespace hytap {

namespace {

bool InRange(const Value& v, const Value* lo, const Value* hi) {
  if (lo != nullptr && v < *lo) return false;
  if (hi != nullptr && *hi < v) return false;
  return true;
}

/// InRange on a numeric slot's raw bytes, against bounds unboxed once. A
/// null bound becomes the type's extreme (an infinity for floating point),
/// which every value — NaN included — satisfies exactly as `!(v < lo) &&
/// !(hi < v)` does for the boxed bound, so results match InRange bit for
/// bit, NaN and -0.0 included.
template <typename T>
class TypedSlotRange {
 public:
  TypedSlotRange(const Value* lo, const Value* hi)
      : lo_(lo != nullptr ? lo->As<T>() : Lowest()),
        hi_(hi != nullptr ? hi->As<T>() : Highest()) {}

  bool Contains(const uint8_t* slot_bytes) const {
    T v;
    std::memcpy(&v, slot_bytes, sizeof(v));
    return !(v < lo_) && !(hi_ < v);
  }

 private:
  using Limits = std::numeric_limits<T>;
  static T Lowest() {
    return Limits::has_infinity ? -Limits::infinity() : Limits::lowest();
  }
  static T Highest() {
    return Limits::has_infinity ? Limits::infinity() : Limits::max();
  }

  T lo_, hi_;
};

/// InRange on deserialized slot values: string slots, and bounds whose type
/// differs from the slot (Value::Compare rejects those).
class BoxedSlotRange {
 public:
  BoxedSlotRange(const RowLayout& layout, size_t slot, const Value* lo,
                 const Value* hi)
      : layout_(layout), slot_(slot), lo_(lo), hi_(hi) {}

  bool Contains(const uint8_t* slot_bytes) const {
    return InRange(layout_.DeserializeSlot(
                       slot_bytes - layout_.slot_offset(slot_), slot_),
                   lo_, hi_);
  }

 private:
  const RowLayout& layout_;
  size_t slot_;
  const Value* lo_;
  const Value* hi_;
};

/// Calls fn(range) with the [lo, hi] predicate of member slot `slot`,
/// typed once per call: range.Contains(slot_bytes) tests one row's slot.
template <typename Fn>
void WithSlotRange(const RowLayout& layout, size_t slot, const Value* lo,
                   const Value* hi, Fn&& fn) {
  const DataType type = layout.slot_type(slot);
  if ((lo != nullptr && lo->type() != type) ||
      (hi != nullptr && hi->type() != type)) {
    return fn(BoxedSlotRange(layout, slot, lo, hi));
  }
  switch (type) {
    case DataType::kInt32:
      return fn(TypedSlotRange<int32_t>(lo, hi));
    case DataType::kInt64:
      return fn(TypedSlotRange<int64_t>(lo, hi));
    case DataType::kFloat:
      return fn(TypedSlotRange<float>(lo, hi));
    case DataType::kDouble:
      return fn(TypedSlotRange<double>(lo, hi));
    case DataType::kString:
      return fn(BoxedSlotRange(layout, slot, lo, hi));
  }
  HYTAP_UNREACHABLE("invalid DataType");
}

/// Registry handles resolved once; Add() is gated on the HYTAP_METRICS knob.
struct SscgMetrics {
  Counter* pages_scanned;
  Counter* pages_pruned;
  Counter* probe_rows;

  static SscgMetrics& Get() {
    static SscgMetrics metrics;
    return metrics;
  }

 private:
  SscgMetrics() {
    MetricsRegistry& registry = MetricsRegistry::Global();
    pages_scanned = registry.GetCounter("hytap_sscg_pages_scanned_total");
    pages_pruned = registry.GetCounter("hytap_sscg_pages_pruned_total");
    probe_rows = registry.GetCounter("hytap_sscg_probe_rows_total");
  }
};

/// Folds one successful buffer-manager fetch into `io`. Recovered-by-retry
/// CRC mismatches ride along on the miss path; unrecoverable ones surface as
/// fetch errors and are charged by AccountFetchError instead.
void AccountFetch(const BufferManager::Fetch& fetch, IoStats* io) {
  if (io == nullptr) return;
  if (fetch.hit) {
    io->dram_ns += fetch.latency_ns;
    ++io->cache_hits;
  } else {
    io->device_ns += fetch.latency_ns;
    io->retry_backoff_ns += fetch.retry_ns;
    ++io->page_reads;
    io->retries += fetch.retries;
    io->checksum_failures += fetch.checksum_failures;
  }
}

/// Charges a failed fetch of store page `id`: if the page is (now)
/// quarantined — newly declared dead/corrupt by this very read, or already
/// dead and fast-failed — the operation records it in `quarantined_pages`,
/// and a kDataLoss failure (stored bytes failing verification on every
/// retry) additionally lands in `verify_failures`.
void AccountFetchError(PageId id, const Status& status, BufferManager* buffers,
                       IoStats* io) {
  if (io == nullptr) return;
  if (status.code() == StatusCode::kDataLoss) ++io->verify_failures;
  if (buffers->store()->IsQuarantined(id)) {
    ++io->quarantined_pages;
  }
}

}  // namespace

Sscg::Sscg(RowLayout layout, const std::vector<TypedColumn>& columns,
           SecondaryStore* store, uint64_t* out_write_ns)
    : layout_(std::move(layout)),
      synopsis_(layout_, columns),
      row_count_(columns.empty() ? 0 : TypedColumnSize(columns[0])) {
  HYTAP_ASSERT(store != nullptr, "SSCG requires a store");
  for (size_t slot = 0; slot < columns.size(); ++slot) {
    HYTAP_ASSERT(TypedColumnType(columns[slot]) == layout_.slot_type(slot),
                 "SSCG member column type does not match its slot");
    HYTAP_ASSERT(TypedColumnSize(columns[slot]) == row_count_,
                 "SSCG member columns differ in length");
  }
  const size_t pages = layout_.PageCountFor(row_count_);
  const size_t rows_per_page = layout_.rows_per_page();
  const size_t row_width = layout_.row_width();
  page_ids_.reserve(pages);
  SecondaryStore::Page page;
  for (size_t p = 0; p < pages; ++p) {
    page.fill(0);
    const size_t first_row = p * rows_per_page;
    const size_t last_row = std::min(row_count_, first_row + rows_per_page);
    // Slot by slot: each member column is read sequentially.
    for (size_t slot = 0; slot < columns.size(); ++slot) {
      std::visit(
          [&](const auto& values) {
            uint8_t* row = page.data();
            for (size_t r = first_row; r < last_row; ++r, row += row_width) {
              layout_.WriteSlot(slot, values[r], row);
            }
          },
          columns[slot]);
    }
    const PageId id = store->AllocatePage();
    store->WritePage(id, page);
    page_ids_.push_back(id);
  }
  if (out_write_ns != nullptr) {
    *out_write_ns = store->device().SequentialWriteNs(pages, /*threads=*/1);
  }
}

StatusOr<const uint8_t*> Sscg::FetchTuple(RowId row, BufferManager* buffers,
                                          uint32_t queue_depth,
                                          IoStats* io) const {
  HYTAP_ASSERT(row < row_count_, "SSCG row out of range");
  const PageId global = page_ids_[layout_.PageOf(row)];
  auto fetch = buffers->FetchPage(global, AccessPattern::kRandom, queue_depth);
  if (!fetch.ok()) {
    AccountFetchError(global, fetch.status(), buffers, io);
    return fetch.status();
  }
  AccountFetch(*fetch, io);
  return fetch->page->data() + layout_.OffsetInPage(row);
}

StatusOr<Row> Sscg::ReconstructTuple(RowId row, BufferManager* buffers,
                                     uint32_t queue_depth, IoStats* io) const {
  auto tuple = FetchTuple(row, buffers, queue_depth, io);
  if (!tuple.ok()) return tuple.status();
  return layout_.DeserializeRow(*tuple);
}

StatusOr<Value> Sscg::ProbeValue(RowId row, size_t slot, BufferManager* buffers,
                                 uint32_t queue_depth, IoStats* io) const {
  auto tuple = FetchTuple(row, buffers, queue_depth, io);
  if (!tuple.ok()) return tuple.status();
  return layout_.DeserializeSlot(*tuple, slot);
}

Status Sscg::AccountTupleFetches(const RowId* rows, size_t n,
                                 BufferManager* buffers, uint32_t queue_depth,
                                 IoStats* io) const {
  const size_t rows_per_page = layout_.rows_per_page();
  for (size_t i = 0; i < n;) {
    // The run: rows[i] and every following row on the same page. A per-row
    // fetch of those rows would hit the page the first fetch just made
    // resident, with no other fetch in between to evict it.
    const RowId first = rows[i] - rows[i] % rows_per_page;
    size_t end = i + 1;
    while (end < n && rows[end] >= first && rows[end] - first < rows_per_page) {
      ++end;
    }
    auto tuple = FetchTuple(rows[i], buffers, queue_depth, io);
    if (!tuple.ok()) return tuple.status();
    const uint64_t repeats = end - i - 1;
    if (repeats > 0) {
      const uint64_t ns =
          buffers->CountRepeatHits(page_ids_[layout_.PageOf(first)], repeats);
      if (io != nullptr) {
        io->dram_ns += ns;
        io->cache_hits += repeats;
      }
    }
    i = end;
  }
  return Status::Ok();
}

Status Sscg::ScanSlot(size_t slot, const Value* lo, const Value* hi,
                      BufferManager* buffers, uint32_t threads,
                      PositionList* out, IoStats* io) const {
  return ScanSlotPages(slot, lo, hi, 0, page_ids_.size(), buffers, threads,
                       out, io);
}

Status Sscg::ScanSlotPages(size_t slot, const Value* lo, const Value* hi,
                           size_t page_begin, size_t page_end,
                           BufferManager* buffers, uint32_t threads,
                           PositionList* out, IoStats* io) const {
  page_end = std::min(page_end, page_ids_.size());
  if (page_begin >= page_end) return Status::Ok();
  // Survivor set, decided serially in page order: each pruning decision is a
  // pure function of the immutable per-page synopsis, so the surviving page
  // sequence — and with it every fetch, fault draw, and counter below — is
  // identical at any worker count, and a pruned page consumes nothing: no
  // buffer-manager fetch, no device latency, no checksum verify, no fault
  // draw.
  const bool skipping = ZoneMapsEnabled() && synopsis_.has_slot(slot);
  std::vector<size_t> survivors;
  survivors.reserve(page_end - page_begin);
  for (size_t local = page_begin; local < page_end; ++local) {
    if (skipping && synopsis_.Prunes(local, slot, lo, hi)) continue;
    survivors.push_back(local);
  }
  if (io != nullptr) {
    io->pages_pruned += (page_end - page_begin) - survivors.size();
  }
  SscgMetrics::Get().pages_pruned->Add((page_end - page_begin) -
                                       survivors.size());
  SscgMetrics::Get().pages_scanned->Add(survivors.size());
  if (survivors.empty()) return Status::Ok();
  // Accounting pass, single-threaded and in page order: pulls every
  // surviving page through the cache exactly as the serial scan did, so
  // hit/miss counts, CLOCK state, simulated latencies — and the
  // fault-injection schedule — are identical for any worker count (the
  // `threads` queue depth still scales the modeled latency). A page error
  // aborts here, before any position is produced, so the first failure in
  // page order wins regardless of thread count.
  for (size_t local : survivors) {
    auto fetch = buffers->FetchPage(page_ids_[local],
                                    AccessPattern::kSequential, threads);
    if (!fetch.ok()) {
      AccountFetchError(page_ids_[local], fetch.status(), buffers, io);
      return fetch.status();
    }
    AccountFetch(*fetch, io);
  }
  // Filter pass: morsels of whole surviving pages, each worker
  // deserializing into its own position list; concatenation in morsel order
  // yields the ascending serial output (survivors are ascending). Workers
  // read page payloads via the raw store (identical bytes, no cache
  // mutation, no timing).
  const SecondaryStore* store = buffers->store();
  HYTAP_ASSERT(store != nullptr, "buffer manager without a store");
  const size_t morsels =
      ThreadPool::MorselCount(0, survivors.size(), kScanMorselPages);
  std::vector<PositionList> parts(morsels);
  const size_t row_width = layout_.row_width();
  const size_t slot_offset = layout_.slot_offset(slot);
  WithSlotRange(layout_, slot, lo, hi, [&](const auto& range) {
    ThreadPool::Global().ParallelFor(
        0, survivors.size(), kScanMorselPages, threads,
        [&](size_t m, size_t s_begin, size_t s_end) {
          PositionList& part = parts[m];
          for (size_t s = s_begin; s < s_end; ++s) {
            const size_t local = survivors[s];
            const RowId first = local * layout_.rows_per_page();
            const size_t rows_here =
                std::min<size_t>(layout_.rows_per_page(), row_count_ - first);
            const uint8_t* slot_bytes =
                store->RawPage(page_ids_[local]).data() + slot_offset;
            // The slots sit one row width apart on pages scattered in
            // memory: prefetch the next page's while filtering this one.
            if (s + 1 < s_end) {
              const uint8_t* next =
                  store->RawPage(page_ids_[survivors[s + 1]]).data() +
                  slot_offset;
              for (size_t r = 0; r < rows_here; ++r) {
                __builtin_prefetch(next + r * row_width);
              }
            }
            // Branch-free append: write every row, keep the survivors.
            const size_t base = part.size();
            part.resize(base + rows_here);
            RowId* dst = part.data() + base;
            size_t kept = 0;
            for (size_t r = 0; r < rows_here; ++r, slot_bytes += row_width) {
              dst[kept] = first + r;
              kept += range.Contains(slot_bytes);
            }
            part.resize(base + kept);
          }
        });
  });
  size_t total = out->size();
  for (const PositionList& part : parts) total += part.size();
  out->reserve(total);
  for (const PositionList& part : parts) {
    out->insert(out->end(), part.begin(), part.end());
  }
  return Status::Ok();
}

Value Sscg::RawValue(RowId row, size_t slot,
                     const SecondaryStore& store) const {
  return layout_.DeserializeSlot(RawTuple(row, store), slot);
}

Status Sscg::ProbeSlot(size_t slot, const Value* lo, const Value* hi,
                       const PositionList& in, BufferManager* buffers,
                       uint32_t queue_depth, PositionList* out,
                       IoStats* io) const {
  SscgMetrics::Get().probe_rows->Add(in.size());
  // One accounted fetch per candidate; on a page error `out` is untouched:
  // no partial results. The filter then reads the fetched (and verified)
  // bytes from the raw store, as the scan's filter pass does.
  Status status =
      AccountTupleFetches(in.data(), in.size(), buffers, queue_depth, io);
  if (!status.ok()) return status;
  const SecondaryStore& store = *buffers->store();
  const size_t slot_offset = layout_.slot_offset(slot);
  const size_t base = out->size();
  out->resize(base + in.size());
  RowId* dst = out->data() + base;
  size_t kept = 0;
  WithSlotRange(layout_, slot, lo, hi, [&](const auto& range) {
    for (RowId row : in) {
      dst[kept] = row;
      kept += range.Contains(RawTuple(row, store) + slot_offset);
    }
  });
  out->resize(base + kept);
  return Status::Ok();
}

}  // namespace hytap
