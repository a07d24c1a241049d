// lfu.h — least-frequently-used cache with LRU tie-breaking (ablation).
#pragma once

#include <cstdint>
#include <set>
#include <unordered_map>

#include "cache/cache.h"

namespace spindown::cache {

class LfuCache final : public FileCache {
public:
  explicit LfuCache(util::Bytes capacity);

  bool access(workload::FileId id, util::Bytes size) override;
  bool contains(workload::FileId id) const override;

  util::Bytes capacity() const override { return capacity_; }
  util::Bytes used() const override { return used_; }
  std::size_t entries() const override { return entries_.size(); }
  const CacheStats& stats() const override { return stats_; }

  /// Access frequency recorded for a resident file (0 if absent); exposed
  /// for tests.
  std::uint64_t frequency(workload::FileId id) const;

private:
  struct Entry {
    util::Bytes size = 0;
    std::uint64_t freq = 0;
    std::uint64_t last_touch = 0; ///< logical clock for LRU tie-break
  };
  /// Victim order: smallest (freq, last_touch) first.
  using Key = std::pair<std::uint64_t, std::uint64_t>; // (freq, last_touch)

  void evict_one();

  util::Bytes capacity_;
  util::Bytes used_ = 0;
  std::uint64_t clock_ = 0;
  // Lookup only — never iterated; victim selection walks victim_order_,
  // whose std::set ordering is deterministic.
  std::unordered_map<workload::FileId, Entry> entries_;
  std::set<std::pair<Key, workload::FileId>> victim_order_;
  CacheStats stats_;
};

} // namespace spindown::cache
