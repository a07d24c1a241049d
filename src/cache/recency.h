// recency.h — LRU (the paper's §5.1 configuration) and FIFO (future-work
// ablation baseline) as one intrusive recency list over dense file slots.
//
// Misses admit at the head of a doubly linked list and eviction pops the
// tail.  The two policies differ only in promote-on-hit: LRU moves a hit to
// the head, FIFO leaves the list in admission order.
//
// Layout: `slot_` maps each FileId to a slab slot (kNil when the file is not
// resident); only resident files own a 24-byte slab node, and evicted slots
// are recycled through a free list threaded through `next`.  After warm-up
// (the slab has grown to the peak resident count and `slot_` to the largest
// id seen) an access neither allocates nor hashes.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "cache/cache.h"
#include "util/prefetch.h"

namespace spindown::cache {

template <bool kPromoteOnHit>
class RecencyCache final : public FileCache {
public:
  explicit RecencyCache(util::Bytes capacity) : capacity_(capacity) {}

  bool access(workload::FileId id, util::Bytes size) override;
  bool contains(workload::FileId id) const override {
    return id < slot_.size() && slot_[id] != kNil;
  }
  void prefetch(workload::FileId id) const override {
    if (id < slot_.size()) util::prefetch(slot_.data() + id);
  }

  util::Bytes capacity() const override { return capacity_; }
  util::Bytes used() const override { return used_; }
  std::size_t entries() const override { return entries_; }
  const CacheStats& stats() const override { return stats_; }

private:
  static constexpr std::uint32_t kNil =
      std::numeric_limits<std::uint32_t>::max();

  struct Node {
    workload::FileId file = 0;
    std::uint32_t prev = kNil; ///< toward the head (more recent)
    std::uint32_t next = kNil; ///< toward the tail; free-list link if unused
    util::Bytes size = 0;
  };
  static_assert(sizeof(Node) == 24);

  void push_front(std::uint32_t n);
  void unlink(std::uint32_t n);
  void evict_tail();

  util::Bytes capacity_;
  util::Bytes used_ = 0;
  std::size_t entries_ = 0;
  std::vector<std::uint32_t> slot_; ///< FileId -> slab slot, kNil if absent
  std::vector<Node> slab_;
  std::uint32_t head_ = kNil; ///< most recently admitted (or hit, for LRU)
  std::uint32_t tail_ = kNil; ///< next victim
  std::uint32_t free_ = kNil; ///< recycled slab slots
  CacheStats stats_;
};

extern template class RecencyCache<true>;
extern template class RecencyCache<false>;

using LruCache = RecencyCache<true>;
using FifoCache = RecencyCache<false>;

} // namespace spindown::cache
