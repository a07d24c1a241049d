#include "util/binary_heap.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "util/rng.h"

namespace spindown::util {
namespace {

TEST(BinaryHeap, EmptyBasics) {
  BinaryHeap<int> heap;
  EXPECT_TRUE(heap.empty());
  EXPECT_EQ(heap.size(), 0u);
  EXPECT_TRUE(heap.verify_invariant());
}

TEST(BinaryHeap, PushPopOrdering) {
  BinaryHeap<int> heap;
  for (int v : {5, 1, 9, 3, 7}) heap.push(v);
  EXPECT_EQ(heap.size(), 5u);
  std::vector<int> out;
  while (!heap.empty()) out.push_back(heap.pop());
  EXPECT_EQ(out, (std::vector<int>{9, 7, 5, 3, 1}));
}

TEST(BinaryHeap, HeapifyConstruction) {
  std::vector<int> items{4, 8, 15, 16, 23, 42, 1, 0, -5};
  BinaryHeap<int> heap{items};
  EXPECT_TRUE(heap.verify_invariant());
  EXPECT_EQ(heap.top(), 42);
  std::sort(items.rbegin(), items.rend());
  for (int expected : items) EXPECT_EQ(heap.pop(), expected);
}

TEST(BinaryHeap, Duplicates) {
  BinaryHeap<int> heap{std::vector<int>{3, 3, 3, 1, 1}};
  EXPECT_EQ(heap.pop(), 3);
  EXPECT_EQ(heap.pop(), 3);
  EXPECT_EQ(heap.pop(), 3);
  EXPECT_EQ(heap.pop(), 1);
  EXPECT_EQ(heap.pop(), 1);
}

TEST(BinaryHeap, CustomComparatorMinHeap) {
  BinaryHeap<int, std::greater<>> heap{std::vector<int>{5, 1, 9}};
  EXPECT_EQ(heap.pop(), 1);
  EXPECT_EQ(heap.pop(), 5);
  EXPECT_EQ(heap.pop(), 9);
}

TEST(BinaryHeap, InterleavedPushPopKeepsInvariant) {
  Rng rng{99};
  BinaryHeap<std::uint64_t> heap;
  for (int round = 0; round < 2000; ++round) {
    if (heap.empty() || rng.uniform01() < 0.6) {
      heap.push(rng.uniform_int(0, 1000));
    } else {
      heap.pop();
    }
    ASSERT_TRUE(heap.verify_invariant()) << "round " << round;
  }
}

struct Keyed {
  double key;
  int id;
};
struct KeyedLess {
  bool operator()(const Keyed& a, const Keyed& b) const {
    if (a.key != b.key) return a.key < b.key;
    return a.id > b.id; // smaller id wins ties
  }
};

TEST(BinaryHeap, TieBreakDeterminism) {
  BinaryHeap<Keyed, KeyedLess> heap{
      std::vector<Keyed>{{1.0, 5}, {1.0, 2}, {1.0, 9}, {0.5, 1}}};
  EXPECT_EQ(heap.pop().id, 2);
  EXPECT_EQ(heap.pop().id, 5);
  EXPECT_EQ(heap.pop().id, 9);
  EXPECT_EQ(heap.pop().id, 1);
}

// Property sweep: heap sort of random arrays of several sizes must agree
// with std::sort (descending).
class HeapSortProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(HeapSortProperty, MatchesStdSort) {
  const std::size_t n = GetParam();
  Rng rng{1000 + n};
  std::vector<std::uint64_t> values(n);
  for (auto& v : values) v = rng.uniform_int(0, 500);
  BinaryHeap<std::uint64_t> heap{values};
  std::sort(values.rbegin(), values.rend());
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(heap.pop(), values[i]) << "index " << i << " n=" << n;
  }
  EXPECT_TRUE(heap.empty());
}

INSTANTIATE_TEST_SUITE_P(Sizes, HeapSortProperty,
                         ::testing::Values(1, 2, 3, 7, 10, 64, 100, 1000,
                                           4096));

} // namespace
} // namespace spindown::util
