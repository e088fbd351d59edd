#include "tiering/buffer_manager.h"

#include <gtest/gtest.h>

#include <cstring>

#include "common/metrics.h"

namespace hytap {
namespace {

class BufferManagerTest : public ::testing::Test {
 protected:
  BufferManagerTest() : store_(DeviceKind::kXpoint) {
    // 16 pages with recognizable contents.
    for (int p = 0; p < 16; ++p) {
      const PageId id = store_.AllocatePage();
      SecondaryStore::Page page;
      page.fill(static_cast<uint8_t>(p + 1));
      store_.WritePage(id, page);
    }
  }

  SecondaryStore store_;
};

TEST_F(BufferManagerTest, MissThenHit) {
  BufferManager bm(&store_, 4);
  auto fetch1 = bm.FetchPage(3, AccessPattern::kRandom);
  ASSERT_TRUE(fetch1.ok());
  EXPECT_FALSE(fetch1->hit);
  EXPECT_GT(fetch1->latency_ns, 1000u);  // device latency
  EXPECT_EQ((*fetch1->page)[0], 4);
  auto fetch2 = bm.FetchPage(3, AccessPattern::kRandom);
  ASSERT_TRUE(fetch2.ok());
  EXPECT_TRUE(fetch2->hit);
  EXPECT_LT(fetch2->latency_ns, 1000u);  // DRAM
  EXPECT_EQ(bm.stats().hits, 1u);
  EXPECT_EQ(bm.stats().misses, 1u);
}

TEST_F(BufferManagerTest, CapacityNeverExceeded) {
  BufferManager bm(&store_, 4);
  for (PageId id = 0; id < 16; ++id) {
    bm.FetchPage(id, AccessPattern::kSequential);
    EXPECT_LE(bm.resident_pages(), 4u);
  }
  EXPECT_EQ(bm.stats().misses, 16u);
  EXPECT_EQ(bm.stats().evictions, 12u);
}

TEST_F(BufferManagerTest, EvictionDropsColdPage) {
  BufferManager bm(&store_, 2);
  bm.FetchPage(0, AccessPattern::kRandom);
  bm.FetchPage(1, AccessPattern::kRandom);
  bm.FetchPage(2, AccessPattern::kRandom);  // evicts one of 0/1
  EXPECT_EQ(bm.resident_pages(), 2u);
  EXPECT_TRUE(bm.IsResident(2));
}

TEST_F(BufferManagerTest, PinnedPagesSurviveEviction) {
  BufferManager bm(&store_, 2);
  bm.FetchPage(0, AccessPattern::kRandom);
  bm.Pin(0);
  for (PageId id = 1; id < 10; ++id) {
    bm.FetchPage(id, AccessPattern::kRandom);
    ASSERT_TRUE(bm.IsResident(0)) << "pinned page evicted at " << id;
  }
  bm.Unpin(0);
  // Now page 0 may be evicted again.
  bm.FetchPage(10, AccessPattern::kRandom);
  bm.FetchPage(11, AccessPattern::kRandom);
  EXPECT_FALSE(bm.IsResident(0));
}

TEST_F(BufferManagerTest, PinsNest) {
  BufferManager bm(&store_, 2);
  bm.FetchPage(0, AccessPattern::kRandom);
  bm.Pin(0);
  bm.Pin(0);
  bm.Unpin(0);
  // Still pinned once.
  bm.FetchPage(1, AccessPattern::kRandom);
  bm.FetchPage(2, AccessPattern::kRandom);
  EXPECT_TRUE(bm.IsResident(0));
}

TEST_F(BufferManagerTest, ClockSweepEvictsInHandOrder) {
  // CLOCK semantics: with every resident page referenced, a full sweep
  // clears all reference bits and the hand evicts frames in order.
  BufferManager bm(&store_, 3);
  bm.FetchPage(0, AccessPattern::kRandom);
  bm.FetchPage(1, AccessPattern::kRandom);
  bm.FetchPage(2, AccessPattern::kRandom);
  bm.FetchPage(3, AccessPattern::kRandom);  // sweep clears, evicts frame 0
  EXPECT_FALSE(bm.IsResident(0));
  bm.FetchPage(4, AccessPattern::kRandom);  // frame 1 (bit already cleared)
  EXPECT_FALSE(bm.IsResident(1));
  bm.FetchPage(5, AccessPattern::kRandom);  // frame 2
  EXPECT_FALSE(bm.IsResident(2));
  EXPECT_TRUE(bm.IsResident(3));
  EXPECT_TRUE(bm.IsResident(4));
  EXPECT_TRUE(bm.IsResident(5));
}

TEST_F(BufferManagerTest, ReferencedPageGetsOneSweepOfGrace) {
  BufferManager bm(&store_, 3);
  bm.FetchPage(0, AccessPattern::kRandom);
  bm.FetchPage(1, AccessPattern::kRandom);
  bm.FetchPage(2, AccessPattern::kRandom);
  bm.FetchPage(3, AccessPattern::kRandom);  // evicts frame 0, hand at 1
  // Re-reference page 1 (frame 1): the next eviction must skip it once its
  // bit is fresh and take frame 2 (page 2, bit cleared by the first sweep).
  bm.FetchPage(1, AccessPattern::kRandom);
  bm.FetchPage(6, AccessPattern::kRandom);
  EXPECT_TRUE(bm.IsResident(1));
  EXPECT_FALSE(bm.IsResident(2));
}

TEST_F(BufferManagerTest, ClearDropsUnpinned) {
  BufferManager bm(&store_, 4);
  bm.FetchPage(0, AccessPattern::kRandom);
  bm.FetchPage(1, AccessPattern::kRandom);
  bm.Pin(1);
  bm.Clear();
  EXPECT_FALSE(bm.IsResident(0));
  EXPECT_TRUE(bm.IsResident(1));
}

TEST_F(BufferManagerTest, ResizeResetsCache) {
  BufferManager bm(&store_, 2);
  bm.FetchPage(0, AccessPattern::kRandom);
  bm.Resize(8);
  EXPECT_EQ(bm.frame_count(), 8u);
  EXPECT_EQ(bm.resident_pages(), 0u);
}

TEST_F(BufferManagerTest, HitRateStat) {
  BufferManager bm(&store_, 4);
  bm.FetchPage(0, AccessPattern::kRandom);
  bm.FetchPage(0, AccessPattern::kRandom);
  bm.FetchPage(0, AccessPattern::kRandom);
  bm.FetchPage(1, AccessPattern::kRandom);
  EXPECT_DOUBLE_EQ(bm.stats().HitRate(), 0.5);
  bm.ResetStats();
  EXPECT_EQ(bm.stats().hits + bm.stats().misses, 0u);
}

TEST_F(BufferManagerTest, ContentsMatchStore) {
  BufferManager bm(&store_, 4);
  for (PageId id = 0; id < 16; ++id) {
    auto fetch = bm.FetchPage(id, AccessPattern::kRandom);
    ASSERT_TRUE(fetch.ok());
    EXPECT_EQ(0, std::memcmp(fetch->page->data(), store_.RawPage(id).data(),
                             kPageSize));
  }
}

// CountRepeatHits(id, n) must leave a cache exactly as n FetchPage(id) hits
// do: the same stats, hit counter and reference bit, and therefore the same
// next CLOCK victim.
TEST_F(BufferManagerTest, CountRepeatHitsMatchesRepeatedFetchHits) {
  Counter* hits_total =
      MetricsRegistry::Global().GetCounter("hytap_buffer_hits_total");
  const bool metrics_were_enabled = MetricsEnabled();
  SetMetricsEnabled(true);
  for (uint64_t n : {0u, 1u, 5u}) {
    // Afterwards pages 1 and 2 sit unreferenced in frames 1 and 2, page 3
    // referenced in frame 0, and the hand points at page 1's frame.
    auto warm = [](BufferManager& bm) {
      for (PageId id : {0, 1, 2, 3}) bm.FetchPage(id, AccessPattern::kRandom);
    };
    BufferManager fetched(&store_, 3);
    BufferManager counted(&store_, 3);
    warm(fetched);
    warm(counted);

    const uint64_t fetched_before = hits_total->Value();
    uint64_t fetched_ns = 0;
    for (uint64_t i = 0; i < n; ++i) {
      auto hit = fetched.FetchPage(1, AccessPattern::kRandom);
      ASSERT_TRUE(hit.ok());
      ASSERT_TRUE(hit->hit);
      fetched_ns += hit->latency_ns;
    }
    const uint64_t fetched_hits = hits_total->Value() - fetched_before;
    const uint64_t counted_before = hits_total->Value();
    EXPECT_EQ(counted.CountRepeatHits(1, n), fetched_ns) << n;
    EXPECT_EQ(fetched_ns, n * kCacheHitNs) << n;
    EXPECT_EQ(hits_total->Value() - counted_before, fetched_hits) << n;
    EXPECT_EQ(fetched_hits, n) << n;

    const BufferStats a = fetched.stats();
    const BufferStats b = counted.stats();
    EXPECT_EQ(a.hits, b.hits) << n;
    EXPECT_EQ(a.misses, b.misses) << n;
    EXPECT_EQ(a.evictions, b.evictions) << n;

    // The next miss evicts the same victim in both caches: page 2 when the
    // hits set page 1's reference bit, page 1 itself when n == 0.
    fetched.FetchPage(7, AccessPattern::kRandom);
    counted.FetchPage(7, AccessPattern::kRandom);
    for (PageId id : {1, 2, 3, 7}) {
      EXPECT_EQ(fetched.IsResident(id), counted.IsResident(id))
          << "n=" << n << " page " << id;
    }
    EXPECT_EQ(counted.IsResident(1), n > 0) << n;
    EXPECT_EQ(fetched.stats().evictions, counted.stats().evictions) << n;
  }
  SetMetricsEnabled(metrics_were_enabled);
}

TEST_F(BufferManagerTest, CountRepeatHitsOnAbsentPageAborts) {
  BufferManager bm(&store_, 2);
  bm.FetchPage(0, AccessPattern::kRandom);
  EXPECT_DEATH(bm.CountRepeatHits(5, 1), "not resident");
}

TEST_F(BufferManagerTest, AllPinnedAborts) {
  BufferManager bm(&store_, 1);
  bm.FetchPage(0, AccessPattern::kRandom);
  bm.Pin(0);
  EXPECT_DEATH(bm.FetchPage(1, AccessPattern::kRandom), "pinned");
}

}  // namespace
}  // namespace hytap
