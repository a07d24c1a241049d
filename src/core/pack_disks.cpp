#include "core/pack_disks.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>
#include <vector>

namespace spindown::core {

PackHeap::PackHeap(LowerPriority less, std::vector<HeapElem> elems)
    : run_(std::move(elems)) {
  std::sort(run_.begin(), run_.end(), less);
}

namespace {

/// Remove and return the heap's top element.  Precondition: non-empty.
HeapElem pop(PackHeap& heap) {
  const HeapElem top = heap.top();
  heap.pop();
  return top;
}

/// Mutable state of one disk of the group being packed.
struct OpenDisk {
  double S = 0.0;
  double L = 0.0;
  std::vector<std::uint32_t> s_list; ///< members drawn from heap ~S, in order
  std::vector<std::uint32_t> l_list; ///< members drawn from heap ~L, in order
  bool closed = false;

  bool empty() const { return s_list.empty() && l_list.empty(); }

  /// Reopen as an empty disk, keeping the lists' storage.
  void reset() {
    S = 0.0;
    L = 0.0;
    s_list.clear();
    l_list.clear();
    closed = false;
  }
  void add_s(const Item& it) {
    s_list.push_back(it.index);
    S += it.s;
    L += it.l;
  }
  void add_l(const Item& it) {
    l_list.push_back(it.index);
    S += it.s;
    L += it.l;
  }
};

class Packer {
public:
  Packer(std::span<const Item> items, std::size_t v)
      : items_(items), group_(v) {
    assignment_.disk_of.assign(items.size(), 0);
    rho_ = rho(items);
    std::vector<HeapElem> st, ld;
    st.reserve(items.size());
    for (const auto& it : items) {
      if (it.size_intensive()) {
        st.push_back(HeapElem{it.s_key(), it.index});
      } else {
        ld.push_back(HeapElem{it.l_key(), it.index});
      }
    }
    heap_s_ = PackHeap{LowerPriority{}, std::move(st)};
    heap_l_ = PackHeap{LowerPriority{}, std::move(ld)};
    open_count_ = group_.size();
  }

  Assignment run(std::uint64_t& evictions_out) {
    main_loop();
    pack_remaining(heap_s_, /*size_side=*/true);
    pack_remaining(heap_l_, /*size_side=*/false);
    for (auto& d : group_) close(d);
    evictions_out = evictions_;
    return std::move(assignment_);
  }

private:
  void open_group() {
    for (auto& d : group_) d.reset();
    open_count_ = group_.size();
    cursor_ = 0;
  }

  /// Close d; a disk that never took an item gets no disk number.
  void close(OpenDisk& d) {
    if (d.closed) return;
    d.closed = true;
    --open_count_;
    if (d.empty()) return;
    for (auto idx : d.s_list) assignment_.disk_of[idx] = assignment_.disk_count;
    for (auto idx : d.l_list) assignment_.disk_of[idx] = assignment_.disk_count;
    ++assignment_.disk_count;
  }

  /// The next open disk at or after the cursor; a fresh group when every
  /// disk of the current one is closed.
  OpenDisk& next_open_disk() {
    if (open_count_ == 0) open_group();
    for (;;) {
      auto& d = group_[cursor_];
      if (++cursor_ == group_.size()) cursor_ = 0;
      if (!d.closed) return d;
    }
  }

  bool complete(const OpenDisk& d) const {
    const double threshold = 1.0 - rho_;
    return d.S >= threshold && d.L >= threshold;
  }

  /// One Pack_Disks step on disk d.  Returns false when the heap d wants to
  /// draw from is empty.
  bool step(OpenDisk& d) {
    if (d.S >= d.L) {
      // Disk dominated by size: draw the most load-intensive item.
      if (heap_l_.empty()) return false;
      const auto e = pop(heap_l_);
      const Item& j = items_[e.index];
      if (d.S + j.s > 1.0) {
        // Overflow in the dominated dimension: evict the most recent
        // s-side member (O(1) via s-list; Lemma 1 guarantees it exists
        // and is big enough) and close — Lemma 3 proves completeness.
        assert(!d.s_list.empty());
        if (d.s_list.empty()) return retry_on_next_disk(d, heap_l_, e);
        const auto k = d.s_list.back();
        d.s_list.pop_back();
        d.S -= items_[k].s;
        d.L -= items_[k].l;
        heap_s_.push(HeapElem{items_[k].s_key(), k});
        d.add_l(j);
        // Post-eviction fit is guaranteed by Lemma 1's key bound.
        assert(d.S <= 1.0 + 1e-12 && d.L <= 1.0 + 1e-12);
        ++evictions_;
        close(d); // complete by Lemma 3
        return true;
      }
      d.add_l(j);
    } else {
      // Disk dominated by load: draw the most size-intensive item.
      if (heap_s_.empty()) return false;
      const auto e = pop(heap_s_);
      const Item& j = items_[e.index];
      if (d.L + j.l > 1.0) {
        assert(!d.l_list.empty());
        if (d.l_list.empty()) return retry_on_next_disk(d, heap_s_, e);
        const auto k = d.l_list.back();
        d.l_list.pop_back();
        d.S -= items_[k].s;
        d.L -= items_[k].l;
        heap_l_.push(HeapElem{items_[k].l_key(), k});
        d.add_s(j);
        assert(d.S <= 1.0 + 1e-12 && d.L <= 1.0 + 1e-12);
        ++evictions_;
        close(d); // complete by Lemma 4
        return true;
      }
      d.add_s(j);
    }
    if (complete(d)) close(d);
    return true;
  }

  /// Defensive fallback (unreachable if the lemmas hold): close the full
  /// disk and put the drawn item back for the next disk to take.
  bool retry_on_next_disk(OpenDisk& d, PackHeap& heap, HeapElem e) {
    close(d);
    heap.push(e);
    return true;
  }

  void main_loop() {
    // Ends when v consecutive open disks find their preferred heap empty;
    // their leftovers go to pack_remaining.  Each successful step consumes
    // a heap element or closes a disk, so the loop terminates.
    std::size_t stalled = 0;
    while (!(heap_s_.empty() && heap_l_.empty()) && stalled < group_.size()) {
      if (step(next_open_disk())) {
        stalled = 0;
      } else {
        ++stalled;
      }
    }
  }

  void pack_remaining(PackHeap& heap, bool size_side) {
    while (!heap.empty()) {
      const Item& j = items_[pop(heap).index];
      const auto add = [&](OpenDisk& d) {
        if (size_side) {
          d.add_s(j);
        } else {
          d.add_l(j);
        }
      };
      // Try the open disks from the cursor on, closing each the item does
      // not fit (Pack_Remaining's "start a new disk" in group form).
      bool placed = false;
      for (std::size_t attempt = 0; attempt < group_.size() && !placed;
           ++attempt) {
        auto& d = next_open_disk();
        if (d.S + j.s <= 1.0 && d.L + j.l <= 1.0) {
          add(d);
          placed = true;
        } else {
          close(d);
        }
      }
      if (!placed) {
        // No open disk could take it: fresh group, first disk.
        for (auto& d : group_) close(d);
        open_group();
        add(next_open_disk());
      }
    }
  }

  std::span<const Item> items_;
  double rho_ = 0.0;
  PackHeap heap_s_;
  PackHeap heap_l_;
  std::vector<OpenDisk> group_;
  std::size_t open_count_ = 0;
  std::size_t cursor_ = 0;
  std::uint64_t evictions_ = 0;
  Assignment assignment_;
};

} // namespace

PackDisks::PackDisks(std::size_t group_size) : v_(group_size) {
  if (group_size == 0) {
    throw std::invalid_argument{"PackDisks: group size must be >= 1"};
  }
}

Assignment PackDisks::allocate(std::span<const Item> items) {
  validate_instance(items);
  evictions_ = 0;
  if (items.empty()) return Assignment{};
  Packer packer{items, v_};
  return packer.run(evictions_);
}

} // namespace spindown::core
