#ifndef HYTAP_TIERING_BUFFER_MANAGER_H_
#define HYTAP_TIERING_BUFFER_MANAGER_H_

#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "tiering/secondary_store.h"

namespace hytap {

/// Simulated cost of a buffer-manager hit: roughly one DRAM page touch.
inline constexpr uint64_t kCacheHitNs = 200;

/// Statistics exposed by the buffer manager.
struct BufferStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t read_failures = 0;  // store reads that returned non-OK
  uint64_t read_retries = 0;   // store read attempts beyond the first
  /// CRC mismatches the store detected during reads issued by this cache
  /// (recovered by retry unless the read also shows up in read_failures).
  uint64_t checksum_failures = 0;
  /// Stored bytes that failed verification on every retry (kDataLoss) —
  /// the cache's view of the store's verify_failures accounting.
  uint64_t verify_failures = 0;
  /// Pages the store newly quarantined during reads issued by this cache —
  /// the per-cache view of SecondaryStore's PR 2 failure handling.
  uint64_t quarantined_pages = 0;

  double HitRate() const {
    const uint64_t total = hits + misses;
    return total == 0 ? 0.0 : double(hits) / double(total);
  }
};

/// Fixed-capacity 4 KB page cache with CLOCK eviction and pinning.
///
/// Substitute for EMC's AMM library (paper §II-C): the paper uses AMM only as
/// a pre-allocated fixed-size page cache, which is exactly what this class
/// provides. The evaluation configures the cache to 2 % of the evicted data
/// size (Fig. 7), which we mirror in the benchmarks.
class BufferManager {
 public:
  /// `frame_count` pages of capacity over `store`. The store must outlive the
  /// buffer manager.
  BufferManager(SecondaryStore* store, size_t frame_count);

  BufferManager(const BufferManager&) = delete;
  BufferManager& operator=(const BufferManager&) = delete;

  /// Result of a page fetch: pointer into the frame plus simulated latency.
  struct Fetch {
    const SecondaryStore::Page* page = nullptr;
    uint64_t latency_ns = 0;
    bool hit = false;
    uint32_t retries = 0;
    /// CRC mismatches detected (and recovered by retry) during this fetch.
    uint32_t checksum_failures = 0;
    /// Retry-waste slice of latency_ns on a miss (backoff + failed-attempt
    /// device time); zero on hits.
    uint64_t retry_ns = 0;
  };

  /// Fetches `id`, reading through to the store on a miss. The returned
  /// pointer is valid until the next FetchPage call unless the page is
  /// pinned. On a failed store read (kUnavailable / kDataLoss) the error is
  /// returned, no frame is installed, and the cache state is as if the call
  /// never happened (apart from stats). Thread-safe (internally serialized);
  /// note that the parallel scan operators deliberately keep their FetchPage
  /// sequence on a single thread so hit/miss accounting — and with it the
  /// fault schedule — stays deterministic.
  StatusOr<Fetch> FetchPage(PageId id, AccessPattern pattern,
                            uint32_t queue_depth = 1);

  /// Charges `n` further hits on the resident page `id` under one lock,
  /// leaving the cache exactly as `n` FetchPage(id) hits would: `hits` and
  /// `hytap_buffer_hits_total` grow by `n` and the CLOCK reference bit is
  /// set (a hit never moves the hand or evicts). Returns the hits' summed
  /// latency, `n * kCacheHitNs`. The caller must know `id` is resident —
  /// it just fetched the page and nothing fetched through this cache since;
  /// a non-resident `id` asserts.
  uint64_t CountRepeatHits(PageId id, uint64_t n);

  /// Pins `id` (must be resident after a FetchPage); pinned pages are never
  /// evicted. Pins nest.
  void Pin(PageId id);
  void Unpin(PageId id);

  bool IsResident(PageId id) const {
    std::lock_guard<std::mutex> lock(mutex_);
    return frame_of_.count(id) > 0;
  }

  /// The backing store. Parallel scan workers read page payloads directly
  /// via SecondaryStore::RawPage (timing-free, immutable during reads)
  /// after the accounting pass fetched them through the cache.
  SecondaryStore* store() const { return store_; }

  /// Attaches session-private timing/fault draw streams (not owned; null
  /// detaches). Every subsequent store miss draws from `stream` instead of
  /// the store's global streams — the serving layer gives each query its own
  /// cold cache plus its own stream, which makes per-query results
  /// interleaving-independent.
  void set_stream(SecondaryStore::ReadStream* stream) { stream_ = stream; }

  size_t frame_count() const { return frames_.size(); }
  size_t resident_pages() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return frame_of_.size();
  }
  /// Returns a snapshot copy taken under the lock (a reference would let
  /// callers read the struct while another thread mutates it).
  BufferStats stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
  }
  void ResetStats() {
    std::lock_guard<std::mutex> lock(mutex_);
    stats_ = BufferStats();
  }

  /// Drops all unpinned pages (used between benchmark phases).
  void Clear();

  /// Resets the cache to `frame_count` frames, dropping all pages. No page
  /// may be pinned when resizing.
  void Resize(size_t frame_count);

 private:
  struct Frame {
    SecondaryStore::Page data;
    PageId page_id = kInvalidPageId;
    uint32_t pin_count = 0;
    bool referenced = false;
    bool occupied = false;
  };

  /// Returns the index of a free (or freshly evicted) frame.
  size_t FindVictim();

  /// Minimal locking for thread safety: one mutex over the frame table and
  /// CLOCK state. The engine's deterministic accounting passes serialize
  /// their fetches anyway, so this lock is effectively uncontended; it
  /// exists so independent components (benchmark drivers, future parallel
  /// probes) can share one cache without data races.
  mutable std::mutex mutex_;
  SecondaryStore* store_;
  SecondaryStore::ReadStream* stream_ = nullptr;  // not owned
  std::vector<Frame> frames_;
  std::unordered_map<PageId, size_t> frame_of_;
  size_t clock_hand_ = 0;
  BufferStats stats_;
};

}  // namespace hytap

#endif  // HYTAP_TIERING_BUFFER_MANAGER_H_
