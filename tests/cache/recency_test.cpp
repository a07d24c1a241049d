// recency_test.cpp — LruCache and FifoCache against a naive reference
// model: a vector in eviction order with linear search.  Every access of
// every seeded case must agree on hit/miss, stats(), used(), entries() and
// contains() for every id.
#include "cache/recency.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace spindown::cache {
namespace {

/// The semantics of cache.h spelled out directly: front = next victim.
class NaiveCache {
public:
  NaiveCache(util::Bytes capacity, bool promote_on_hit)
      : capacity_(capacity), promote_(promote_on_hit) {}

  bool access(workload::FileId id, util::Bytes size) {
    const auto it = find(id);
    if (it != order_.end()) {
      ++stats_.hits;
      if (promote_) std::rotate(it, it + 1, order_.end());
      return true;
    }
    ++stats_.misses;
    if (size > capacity_) return false;
    while (used_ + size > capacity_) {
      used_ -= order_.front().second;
      order_.erase(order_.begin());
      ++stats_.evictions;
    }
    order_.emplace_back(id, size);
    used_ += size;
    return false;
  }

  bool contains(workload::FileId id) { return find(id) != order_.end(); }
  util::Bytes used() const { return used_; }
  std::size_t entries() const { return order_.size(); }
  const CacheStats& stats() const { return stats_; }

private:
  using Entry = std::pair<workload::FileId, util::Bytes>;
  std::vector<Entry>::iterator find(workload::FileId id) {
    return std::find_if(order_.begin(), order_.end(),
                        [id](const Entry& e) { return e.first == id; });
  }

  util::Bytes capacity_;
  bool promote_;
  util::Bytes used_ = 0;
  std::vector<Entry> order_;
  CacheStats stats_;
};

/// Seeded random cases: a random capacity, a per-file size table mixing
/// zero-byte files, exact fits, oversized files and random sizes, and a
/// skewed access stream over a small id universe (so hits and evictions
/// both happen).  Ids are visited in a random, non-monotone order, so the
/// slot index grows mid-run.
template <typename Cache>
void check_against_model(bool promote_on_hit) {
  constexpr int kCases = 25;
  constexpr int kAccessesPerCase = 4'000; // 100k accesses per policy
  constexpr workload::FileId kIds = 48;
  constexpr workload::FileId kProbeIds = kIds + 8; // ids never accessed too
  for (int c = 0; c < kCases; ++c) {
    util::Rng rng{1000 + static_cast<std::uint64_t>(c)};
    const util::Bytes capacity = c == 0 ? 0 : rng.uniform_int(1, 1000);
    std::vector<util::Bytes> size(kIds);
    for (auto& s : size) {
      const double u = rng.uniform01();
      if (u < 0.1) {
        s = 0;
      } else if (u < 0.2) {
        s = capacity; // exact fit
      } else if (u < 0.3) {
        s = capacity + rng.uniform_int(1, 100); // never admissible
      } else {
        s = rng.uniform_int(0, std::max<util::Bytes>(1, capacity / 3));
      }
    }
    Cache cache{capacity};
    NaiveCache model{capacity, promote_on_hit};
    for (int i = 0; i < kAccessesPerCase; ++i) {
      const auto id = static_cast<workload::FileId>(
          rng.uniform01() < 0.5 ? rng.uniform_int(0, 7)
                                : rng.uniform_int(0, kIds - 1));
      ASSERT_EQ(cache.access(id, size[id]), model.access(id, size[id]))
          << "case " << c << " access " << i << " id " << id;
      ASSERT_EQ(cache.stats().hits, model.stats().hits);
      ASSERT_EQ(cache.stats().misses, model.stats().misses);
      ASSERT_EQ(cache.stats().evictions, model.stats().evictions);
      ASSERT_EQ(cache.used(), model.used());
      ASSERT_EQ(cache.entries(), model.entries());
      ASSERT_LE(cache.used(), capacity);
      for (workload::FileId f = 0; f < kProbeIds; ++f) {
        ASSERT_EQ(cache.contains(f), model.contains(f))
            << "case " << c << " access " << i << " probe " << f;
      }
    }
  }
}

TEST(RecencyCache, LruMatchesNaiveModel) {
  check_against_model<LruCache>(/*promote_on_hit=*/true);
}

TEST(RecencyCache, FifoMatchesNaiveModel) {
  check_against_model<FifoCache>(/*promote_on_hit=*/false);
}

} // namespace
} // namespace spindown::cache
