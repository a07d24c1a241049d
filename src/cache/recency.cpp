#include "cache/recency.h"

#include <cassert>

namespace spindown::cache {

template <bool kPromoteOnHit>
bool RecencyCache<kPromoteOnHit>::access(workload::FileId id,
                                         util::Bytes size) {
  if (id >= slot_.size()) slot_.resize(std::size_t{id} + 1, kNil);
  if (const std::uint32_t n = slot_[id]; n != kNil) {
    ++stats_.hits;
    if constexpr (kPromoteOnHit) {
      if (n != head_) {
        unlink(n);
        push_front(n);
      }
    }
    return true;
  }
  ++stats_.misses;
  if (size > capacity_) return false; // never admissible
  while (used_ + size > capacity_) evict_tail();
  std::uint32_t n = free_;
  if (n != kNil) {
    free_ = slab_[n].next;
  } else {
    n = static_cast<std::uint32_t>(slab_.size());
    slab_.emplace_back();
  }
  slab_[n].file = id;
  slab_[n].size = size;
  push_front(n);
  slot_[id] = n;
  used_ += size;
  ++entries_;
  return false;
}

template <bool kPromoteOnHit>
void RecencyCache<kPromoteOnHit>::push_front(std::uint32_t n) {
  Node& node = slab_[n];
  node.prev = kNil;
  node.next = head_;
  if (head_ != kNil) {
    slab_[head_].prev = n;
  } else {
    tail_ = n;
  }
  head_ = n;
}

template <bool kPromoteOnHit>
void RecencyCache<kPromoteOnHit>::unlink(std::uint32_t n) {
  const Node& node = slab_[n];
  if (node.prev != kNil) {
    slab_[node.prev].next = node.next;
  } else {
    head_ = node.next;
  }
  if (node.next != kNil) {
    slab_[node.next].prev = node.prev;
  } else {
    tail_ = node.prev;
  }
}

template <bool kPromoteOnHit>
void RecencyCache<kPromoteOnHit>::evict_tail() {
  assert(tail_ != kNil);
  const std::uint32_t n = tail_;
  unlink(n);
  Node& victim = slab_[n];
  used_ -= victim.size;
  slot_[victim.file] = kNil;
  --entries_;
  ++stats_.evictions;
  victim.next = free_;
  free_ = n;
}

template class RecencyCache<true>;
template class RecencyCache<false>;

} // namespace spindown::cache
