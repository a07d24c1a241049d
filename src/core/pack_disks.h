// pack_disks.h — the paper's core algorithm (§3.1, Algorithm 3) and its
// group form Pack_Disks_v (§3.2): one packer, parameterized by v.
//
// Pack_Disks is an O(n log n) approximation for two-dimensional vector
// packing with guarantee  C_PD <= C*/(1 - rho) + 1  (Theorem 1), where rho
// bounds every item coordinate.
//
// Mechanics, following the pseudocode:
//   * items are split into the size-intensive set ST (s >= l) keyed by
//     ~s = s - l, and the load-intensive set LD (l > s) keyed by ~l = l - s;
//     each set becomes a max-priority queue (PackHeap: one O(n log n) sort
//     plus a side heap for evicted items, which are few);
//   * the current disk balances itself: when its size total dominates
//     (S >= L) it draws the most load-intensive remaining item, and vice
//     versa;
//   * if the drawn item would overflow the dominating dimension, the last
//     element added from the *other* heap's side is evicted back to its heap
//     (an O(1) operation thanks to the per-disk s-list / l-list — the
//     paper's improvement over Chang–Hwang–Park's O(n) search), the item is
//     inserted, and the disk is provably complete (Lemmas 3/4) and closed;
//   * a disk is also closed as soon as it is "complete": both totals within
//     [1 - rho, 1];
//   * when one heap empties, Pack_Remaining packs the leftovers of the other
//     heap, starting a new disk when an item does not fit.
//
// Pack_Disks tends to place many same-size files on the same disk.  When a
// user requests a batch of similar-size files at once (observed in the real
// NERSC log), those requests all queue on one disk.  Pack_Disks_v packs a
// *group* of v disks at a time, handing consecutive items to the group's
// disks round-robin, so a batch of similar files lands on v spindles.  The
// paper leaves the details open; this implementation chooses:
//   * a rotating cursor picks the next open disk of the group; each picked
//     disk takes one ordinary Pack_Disks step (draw, evict-and-close on
//     overflow, close when complete);
//   * when every disk of the group is closed, a fresh group of v opens;
//   * Pack_Remaining also goes round-robin: an item that does not fit the
//     cursor disk closes it and moves on; when no open disk can take the
//     item, a fresh group opens.
// With v = 1 the group is a single disk and these rules are Pack_Disks.
//
// Ties between equal heap keys are broken toward the smaller item index so
// the packing is deterministic and, at v = 1, bit-identical to the O(n^2)
// reference implementation (chang_reference.h), which the tests exploit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <queue>
#include <vector>

#include "core/allocator.h"

namespace spindown::core {

/// An element of the heaps S and L: an item's key (~s or ~l) and index.
struct HeapElem {
  double key;
  std::uint32_t index;
};

/// Heap order: the larger key first, ties toward the smaller index.  Each
/// index is unique within a heap, so the pop sequence is fully determined
/// whatever correct heap implementation runs it.
struct LowerPriority {
  bool operator()(const HeapElem& a, const HeapElem& b) const {
    if (a.key != b.key) return a.key < b.key;
    return a.index > b.index;
  }
};

/// Max-priority queue under LowerPriority, shaped for Pack_Disks: every
/// element is known up front and only evictions and retries push one back.
/// The initial elements are sorted once into a run popped from its back;
/// pushed elements go to a small side heap; pop takes the greater of the
/// two heads.  Indices are unique within a queue, so LowerPriority orders
/// its elements totally and the pop sequence is the one any max-heap over
/// the same elements gives.
class PackHeap {
public:
  PackHeap() = default;
  /// O(n log n) sort of `elems`; the comparator is stateless.
  PackHeap(LowerPriority less, std::vector<HeapElem> elems);

  /// The greatest element.  Precondition: !empty().
  const HeapElem& top() const {
    return side_first() ? side_.top() : run_.back();
  }
  /// Remove top().  Precondition: !empty().
  void pop() {
    if (side_first()) {
      side_.pop();
    } else {
      run_.pop_back();
    }
  }
  void push(const HeapElem& e) { side_.push(e); }
  bool empty() const { return run_.empty() && side_.empty(); }
  std::size_t size() const { return run_.size() + side_.size(); }

private:
  /// Whether the side heap holds the greatest element.
  bool side_first() const {
    return !side_.empty() &&
           (run_.empty() || LowerPriority{}(run_.back(), side_.top()));
  }

  std::vector<HeapElem> run_; ///< ascending, so the greatest is at the back
  std::priority_queue<HeapElem, std::vector<HeapElem>, LowerPriority> side_;
};

class PackDisks final : public Allocator {
public:
  /// group_size >= 1: number of disks packed concurrently (the paper's v).
  explicit PackDisks(std::size_t group_size = 1);

  Assignment allocate(std::span<const Item> items) override;
  /// "pack_disks" at v = 1, "pack_disks_<v>" otherwise.

  std::size_t group_size() const { return v_; }

  /// Number of evictions performed in the last allocate() call (each closes
  /// a disk; exposed for tests of Lemmas 3/4).
  std::uint64_t last_evictions() const { return evictions_; }

private:
  std::size_t v_;
  std::uint64_t evictions_ = 0;
};

} // namespace spindown::core
