#include "cache/recency.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace spindown::cache {
namespace {

TEST(LruCache, MissThenHit) {
  LruCache c{100};
  EXPECT_FALSE(c.access(1, 40));
  EXPECT_TRUE(c.access(1, 40));
  EXPECT_EQ(c.stats().hits, 1u);
  EXPECT_EQ(c.stats().misses, 1u);
  EXPECT_DOUBLE_EQ(c.stats().hit_ratio(), 0.5);
}

TEST(LruCache, EvictsLeastRecentlyUsed) {
  LruCache c{100};
  c.access(1, 40);
  c.access(2, 40);
  c.access(1, 40);      // touch 1: now 2 is the LRU entry
  c.access(3, 40);      // evicts 2
  EXPECT_TRUE(c.contains(1));
  EXPECT_FALSE(c.contains(2));
  EXPECT_TRUE(c.contains(3));
  EXPECT_EQ(c.stats().evictions, 1u);
}

TEST(LruCache, EvictsMultipleForLargeInsert) {
  LruCache c{100};
  c.access(1, 30);
  c.access(2, 30);
  c.access(3, 30);
  c.access(4, 90); // must evict all three
  EXPECT_TRUE(c.contains(4));
  EXPECT_EQ(c.entries(), 1u);
  EXPECT_EQ(c.stats().evictions, 3u);
  EXPECT_EQ(c.used(), 90u);
}

TEST(LruCache, OversizedFileNeverAdmitted) {
  LruCache c{100};
  EXPECT_FALSE(c.access(1, 200));
  EXPECT_FALSE(c.contains(1));
  EXPECT_EQ(c.used(), 0u);
  EXPECT_FALSE(c.access(1, 200)); // still a miss
  EXPECT_EQ(c.stats().misses, 2u);
}

TEST(LruCache, ExactFitAdmitted) {
  LruCache c{100};
  EXPECT_FALSE(c.access(1, 100));
  EXPECT_TRUE(c.contains(1));
  EXPECT_EQ(c.used(), 100u);
}

TEST(LruCache, UsedNeverExceedsCapacity) {
  LruCache c{1000};
  util::Rng rng{5};
  for (int i = 0; i < 5000; ++i) {
    c.access(static_cast<workload::FileId>(rng.uniform_int(0, 99)),
             rng.uniform_int(1, 400));
    ASSERT_LE(c.used(), 1000u);
  }
}

TEST(LruCache, HitRatioGrowsWithSkew) {
  // A hot working set comfortably smaller than capacity should produce a
  // high hit ratio even with cold-tail churn.
  LruCache c{25 * 50};
  util::Rng rng{7};
  for (int i = 0; i < 20000; ++i) {
    // 90% of accesses to files 0..9, the rest to a cold tail.
    const auto id = rng.uniform01() < 0.9
                        ? rng.uniform_int(0, 9)
                        : rng.uniform_int(10, 9999);
    c.access(static_cast<workload::FileId>(id), 50);
  }
  EXPECT_GT(c.stats().hit_ratio(), 0.8);
}

TEST(LruCache, ZeroByteFilesAreFine) {
  LruCache c{10};
  EXPECT_FALSE(c.access(1, 0));
  EXPECT_TRUE(c.access(1, 0));
  EXPECT_EQ(c.used(), 0u);
}

} // namespace
} // namespace spindown::cache
