#include "cache/recency.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace spindown::cache {
namespace {

TEST(FifoCache, MissThenHit) {
  FifoCache c{100};
  EXPECT_FALSE(c.access(1, 40));
  EXPECT_TRUE(c.access(1, 40));
}

TEST(FifoCache, EvictsInInsertionOrderIgnoringHits) {
  FifoCache c{100};
  c.access(1, 40);
  c.access(2, 40);
  c.access(1, 40); // a hit must NOT promote under FIFO
  c.access(3, 40); // evicts 1 (the oldest insertion), not 2
  EXPECT_FALSE(c.contains(1));
  EXPECT_TRUE(c.contains(2));
  EXPECT_TRUE(c.contains(3));
}

TEST(FifoCache, DiffersFromLruExactlyOnPromotion) {
  // The same access pattern as LruCache.EvictsLeastRecentlyUsed keeps 1
  // under LRU but evicts it under FIFO — the defining behavioural split.
  FifoCache c{100};
  c.access(1, 40);
  c.access(2, 40);
  c.access(1, 40);
  c.access(3, 40);
  EXPECT_FALSE(c.contains(1));
}

TEST(FifoCache, OversizedNeverAdmitted) {
  FifoCache c{50};
  EXPECT_FALSE(c.access(9, 100));
  EXPECT_FALSE(c.contains(9));
}

TEST(FifoCache, CapacityInvariant) {
  FifoCache c{500};
  util::Rng rng{11};
  for (int i = 0; i < 3000; ++i) {
    c.access(static_cast<workload::FileId>(rng.uniform_int(0, 49)),
             rng.uniform_int(1, 200));
    ASSERT_LE(c.used(), 500u);
  }
}

TEST(FifoCache, StatsAccounting) {
  FifoCache c{80};
  c.access(1, 40);
  c.access(2, 40);
  c.access(3, 40); // evicts 1
  c.access(1, 40); // miss again, evicts 2
  EXPECT_EQ(c.stats().misses, 4u);
  EXPECT_EQ(c.stats().evictions, 2u);
  EXPECT_EQ(c.stats().hits, 0u);
}

} // namespace
} // namespace spindown::cache
