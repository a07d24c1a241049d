// binary_heap.h — the binary heap the Pack_Disks algorithm is built on.
//
// The paper's complexity argument (Lemma 7) relies on two heap properties:
//   * O(n) construction from an unordered collection, and
//   * O(log n) insert / remove-max.
// std::priority_queue provides both but hides its container; we keep our own
// small implementation so tests can check the heap invariant directly
// (verify_invariant()) and so the allocator code reads like the paper's
// pseudocode (heaps S and L of "size-intensive" / "load-intensive"
// elements).
#pragma once

#include <cassert>
#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

namespace spindown::util {

/// Binary max-heap over T ordered by Compare (std::less -> max-heap, like
/// std::priority_queue).  Construction from a vector is O(n) (Floyd).
template <typename T, typename Compare = std::less<T>>
class BinaryHeap {
public:
  BinaryHeap() = default;

  /// O(n) heapify of an existing collection.
  explicit BinaryHeap(std::vector<T> items, Compare cmp = Compare{})
      : data_(std::move(items)), cmp_(std::move(cmp)) {
    if (data_.size() > 1) {
      for (std::size_t i = parent(data_.size() - 1) + 1; i-- > 0;) sift_down(i);
    }
  }

  bool empty() const { return data_.empty(); }
  std::size_t size() const { return data_.size(); }

  /// Largest element (by Compare).  Precondition: non-empty.
  const T& top() const {
    assert(!data_.empty());
    return data_.front();
  }

  void push(T value) {
    data_.push_back(std::move(value));
    sift_up(data_.size() - 1);
  }

  /// Remove and return the largest element.  Precondition: non-empty.
  T pop() {
    assert(!data_.empty());
    T out = std::move(data_.front());
    if (data_.size() > 1) {
      data_.front() = std::move(data_.back());
      data_.pop_back();
      sift_down(0);
    } else {
      data_.pop_back();
    }
    return out;
  }

  /// True iff every parent >= child under Compare; O(n).
  bool verify_invariant() const {
    for (std::size_t i = 1; i < data_.size(); ++i) {
      if (cmp_(data_[parent(i)], data_[i])) return false;
    }
    return true;
  }

private:
  static std::size_t parent(std::size_t i) { return (i - 1) / 2; }

  // Both sifts move the displaced element as a "hole" (one move per level
  // instead of a three-move swap); the placement decisions are identical to
  // the textbook swap formulation, so layouts (and pop order under ties)
  // are unchanged.

  void sift_up(std::size_t i) {
    T moving = std::move(data_[i]);
    while (i > 0) {
      const std::size_t p = parent(i);
      if (!cmp_(data_[p], moving)) break;
      data_[i] = std::move(data_[p]);
      i = p;
    }
    data_[i] = std::move(moving);
  }

  void sift_down(std::size_t i) {
    const std::size_t n = data_.size();
    if (n == 0) return;
    T moving = std::move(data_[i]);
    for (;;) {
      const std::size_t left = 2 * i + 1;
      if (left >= n) break;
      std::size_t largest = left;
      if (left + 1 < n && cmp_(data_[left], data_[left + 1])) {
        largest = left + 1;
      }
      if (!cmp_(moving, data_[largest])) break;
      data_[i] = std::move(data_[largest]);
      i = largest;
    }
    data_[i] = std::move(moving);
  }

  std::vector<T> data_;
  Compare cmp_;
};

} // namespace spindown::util
