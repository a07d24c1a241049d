#include "core/pack_disks.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/bounds.h"
#include "instance_helpers.h"
#include "util/rng.h"

namespace spindown::core {
namespace {

using testing::InstanceCase;
using testing::random_instance;

TEST(PackDisks, EmptyInstance) {
  PackDisks pd;
  const auto a = pd.allocate(std::vector<Item>{});
  EXPECT_EQ(a.disk_count, 0u);
  EXPECT_TRUE(a.disk_of.empty());
}

TEST(PackDisks, SingleItem) {
  PackDisks pd;
  const std::vector<Item> items{{0.3, 0.7, 0}};
  const auto a = pd.allocate(items);
  EXPECT_EQ(a.disk_count, 1u);
  EXPECT_EQ(a.disk_of[0], 0u);
  EXPECT_TRUE(is_feasible(a, items));
}

TEST(PackDisks, TwoComplementaryItemsShareADisk) {
  PackDisks pd;
  // One size-heavy, one load-heavy: the balancing rule packs them together.
  const std::vector<Item> items{{0.7, 0.1, 0}, {0.1, 0.7, 1}};
  const auto a = pd.allocate(items);
  EXPECT_EQ(a.disk_count, 1u);
  EXPECT_EQ(a.disk_of[0], a.disk_of[1]);
}

TEST(PackDisks, FullSizeItemsGetOwnDisks) {
  PackDisks pd;
  const std::vector<Item> items{{1.0, 0.0, 0}, {1.0, 0.0, 1}, {1.0, 0.0, 2}};
  const auto a = pd.allocate(items);
  EXPECT_EQ(a.disk_count, 3u);
  EXPECT_TRUE(is_feasible(a, items));
}

TEST(PackDisks, AllSizeIntensiveFallsToPackRemaining) {
  PackDisks pd;
  // Every item has l = 0: the main loop never runs (heap L is empty);
  // Pack_Remaining_S must still pack sizes tightly.
  std::vector<Item> items;
  for (std::uint32_t i = 0; i < 10; ++i) items.push_back({0.25, 0.0, i});
  const auto a = pd.allocate(items);
  EXPECT_TRUE(is_feasible(a, items));
  // 10 * 0.25 = 2.5 of size: needs >= 3 disks; greedy by key gets exactly 3.
  EXPECT_EQ(a.disk_count, 3u);
}

TEST(PackDisks, AllLoadIntensiveSymmetric) {
  PackDisks pd;
  std::vector<Item> items;
  for (std::uint32_t i = 0; i < 10; ++i) items.push_back({0.0, 0.25, i});
  const auto a = pd.allocate(items);
  EXPECT_TRUE(is_feasible(a, items));
  EXPECT_EQ(a.disk_count, 3u);
}

TEST(PackDisks, RejectsInvalidItems) {
  PackDisks pd;
  EXPECT_THROW(pd.allocate(std::vector<Item>{{1.2, 0.0, 0}}),
               std::invalid_argument);
}

TEST(PackDisks, DeterministicAcrossCalls) {
  PackDisks pd;
  const auto items = random_instance(500, 0.2, 99);
  const auto a = pd.allocate(items);
  const auto b = pd.allocate(items);
  EXPECT_EQ(a.disk_count, b.disk_count);
  EXPECT_EQ(a.disk_of, b.disk_of);
}

TEST(PackDisks, ClosedDisksAreNearlyFull) {
  // The completeness rule: every closed disk (all but possibly the last in
  // each phase) is s-complete or l-complete — at least 1 - rho in one
  // dimension.  With the theorem's accounting at most one disk may fall
  // short.
  const auto items = random_instance(2000, 0.1, 7);
  PackDisks pd;
  const auto a = pd.allocate(items);
  const double threshold = 1.0 - rho(items);
  const auto totals = disk_totals(a, items);
  std::size_t under = 0;
  for (const auto& d : totals) {
    if (std::max(d.s, d.l) < threshold - 1e-9) ++under;
  }
  EXPECT_LE(under, 1u);
}

// ---- Theorem 1 property sweep -----------------------------------------

class Theorem1Sweep : public ::testing::TestWithParam<InstanceCase> {};

TEST_P(Theorem1Sweep, FeasibleAndWithinGuarantee) {
  const auto items = GetParam().items();
  PackDisks pd;
  const auto a = pd.allocate(items);

  // Feasibility: every disk within both unit capacities.
  ASSERT_TRUE(is_feasible(a, items));

  // Theorem 1 (checkable form): C_PD <= 1 + max(sum s, sum l)/(1 - rho).
  const auto report = bound_report(items);
  EXPECT_TRUE(within_guarantee(report, a.disk_count))
      << "disks=" << a.disk_count << " guarantee=" << report.guarantee;

  // And never fewer disks than the lower bound.
  EXPECT_GE(a.disk_count, report.lower_bound);
}

INSTANTIATE_TEST_SUITE_P(
    RandomInstances, Theorem1Sweep,
    ::testing::Values(InstanceCase{10, 0.5, 1, false},
                      InstanceCase{100, 0.3, 2, false},
                      InstanceCase{100, 0.05, 3, false},
                      InstanceCase{1000, 0.1, 4, false},
                      InstanceCase{1000, 0.02, 5, false},
                      InstanceCase{5000, 0.01, 6, false},
                      InstanceCase{137, 0.9, 7, false},
                      InstanceCase{1000, 0.1, 8, true},
                      InstanceCase{2000, 0.05, 9, true},
                      InstanceCase{500, 0.5, 10, true}));

// Packing efficiency: on easy instances (small rho) the algorithm should be
// close to the lower bound, not just within the loose guarantee.
TEST(PackDisks, NearOptimalForSmallRho) {
  const auto items = random_instance(20'000, 0.01, 42);
  PackDisks pd;
  const auto a = pd.allocate(items);
  const auto report = bound_report(items);
  EXPECT_LE(static_cast<double>(a.disk_count),
            1.10 * static_cast<double>(report.lower_bound) + 1.0);
}

TEST(PackDisks, EvictionsCloseDisks) {
  // Construct an instance designed to trigger the eviction path: large
  // size-intensive items mixed with load-intensive ones.
  std::vector<Item> items;
  std::uint32_t idx = 0;
  for (int i = 0; i < 50; ++i) items.push_back({0.4, 0.05, idx++});
  for (int i = 0; i < 50; ++i) items.push_back({0.05, 0.4, idx++});
  for (int i = 0; i < 50; ++i) items.push_back({0.3, 0.28, idx++});
  PackDisks pd;
  const auto a = pd.allocate(items);
  EXPECT_TRUE(is_feasible(a, items));
  // The counter is observable; whether evictions occur is instance-specific,
  // but the assignment must remain feasible either way.
  SUCCEED() << "evictions=" << pd.last_evictions();
}

// --- Pack_Disks_v (§3.2): v disks packed round-robin -------------------

TEST(PackDisksV, RejectsZeroGroup) {
  EXPECT_THROW(PackDisks{0}, std::invalid_argument);
}

TEST(PackDisksV, NameIncludesGroupSize) {
  EXPECT_EQ(PackDisks{4}.group_size(), 4u);
  EXPECT_EQ(PackDisks{}.group_size(), 1u);
}

TEST(PackDisksV, EmptyAndSingleton) {
  PackDisks g{4};
  EXPECT_EQ(g.allocate(std::vector<Item>{}).disk_count, 0u);
  const std::vector<Item> one{{0.4, 0.3, 0}};
  const auto a = g.allocate(one);
  EXPECT_EQ(a.disk_count, 1u);
  EXPECT_TRUE(is_feasible(a, one));
}

class GroupSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GroupSizeSweep, FeasibleForAllGroupSizes) {
  const auto items = random_instance(1500, 0.08, 21);
  PackDisks g{GetParam()};
  const auto a = g.allocate(items);
  EXPECT_TRUE(is_feasible(a, items));
  // Still within the same order of disks as the lower bound (the group
  // variant trades a little packing tightness for batch dispersion; allow
  // a factor that the paper's v <= 8 stays well inside).
  const auto report = bound_report(items);
  EXPECT_LE(a.disk_count, 2 * report.lower_bound + GetParam() + 1);
  // Every eviction closes a disk.
  EXPECT_LE(g.last_evictions(), a.disk_count);
}

INSTANTIATE_TEST_SUITE_P(V, GroupSizeSweep,
                         ::testing::Values(1, 2, 3, 4, 6, 8, 16));

TEST(PackDisksV, SpreadsConsecutiveSimilarItems) {
  // The design goal (§3.2): a run of same-size items must land on several
  // disks, not one.  Build a batch of identical items small enough that
  // Pack_Disks would put them all on one disk.
  std::vector<Item> items;
  for (std::uint32_t i = 0; i < 16; ++i) items.push_back({0.05, 0.05, i});
  PackDisks g4{4};
  const auto a = g4.allocate(items);
  // The first four consecutive items must be on four different disks.
  std::set<std::uint32_t> first_four{a.disk_of[0], a.disk_of[1],
                                     a.disk_of[2], a.disk_of[3]};
  EXPECT_EQ(first_four.size(), 4u);
}

TEST(PackDisksV, V1DoesNotSpread) {
  std::vector<Item> items;
  for (std::uint32_t i = 0; i < 16; ++i) items.push_back({0.05, 0.05, i});
  PackDisks g1{1};
  const auto a = g1.allocate(items);
  std::set<std::uint32_t> first_four{a.disk_of[0], a.disk_of[1],
                                     a.disk_of[2], a.disk_of[3]};
  EXPECT_EQ(first_four.size(), 1u);
}

TEST(PackDisksV, GroupLargerThanItems) {
  std::vector<Item> items{{0.2, 0.1, 0}, {0.1, 0.2, 1}};
  PackDisks g8{8};
  const auto a = g8.allocate(items);
  EXPECT_TRUE(is_feasible(a, items));
  EXPECT_LE(a.disk_count, 2u);
}

TEST(PackDisksV, DeterministicAcrossCalls) {
  const auto items = random_instance(800, 0.1, 33);
  PackDisks g{4};
  const auto a = g.allocate(items);
  const auto b = g.allocate(items);
  EXPECT_EQ(a.disk_of, b.disk_of);
}

TEST(PackDisksV, AllItemsAssignedExactlyOnce) {
  const auto items = random_instance(3000, 0.05, 55);
  PackDisks g{6};
  const auto a = g.allocate(items);
  ASSERT_EQ(a.disk_of.size(), items.size());
  for (const auto& it : items) {
    EXPECT_LT(a.disk_of[it.index], a.disk_count);
  }
}

// The heaps S and L (PackHeap): larger keys first, equal keys toward the
// smaller index, so the draw order is fully determined.  The suite keeps
// the name of the hand-written heap PackHeap replaced.

HeapElem pop_top(PackHeap& heap) {
  const HeapElem top = heap.top();
  heap.pop();
  return top;
}

std::vector<std::uint32_t> drain_indices(PackHeap& heap) {
  std::vector<std::uint32_t> out;
  while (!heap.empty()) out.push_back(pop_top(heap).index);
  return out;
}

TEST(BinaryHeap, EmptyBasics) {
  // All items on one side leave the other heap empty.
  PackHeap heap{LowerPriority{}, std::vector<HeapElem>{}};
  EXPECT_TRUE(heap.empty());
  EXPECT_EQ(heap.size(), 0u);
}

TEST(BinaryHeap, PushPopOrdering) {
  const double keys[] = {0.5, 0.1, 0.9, 0.3, 0.7};
  PackHeap heap;
  for (std::uint32_t i = 0; i < 5; ++i) heap.push(HeapElem{keys[i], i});
  EXPECT_EQ(drain_indices(heap), (std::vector<std::uint32_t>{2, 4, 0, 3, 1}));
}

TEST(BinaryHeap, HeapifyConstruction) {
  PackHeap heap{LowerPriority{},
                {{0.4, 0}, {0.8, 1}, {0.15, 2}, {0.16, 3}, {0.0, 4}}};
  EXPECT_EQ(heap.top().index, 1u);
  EXPECT_EQ(drain_indices(heap), (std::vector<std::uint32_t>{1, 0, 3, 2, 4}));
}

TEST(BinaryHeap, Duplicates) {
  // An evicted item goes back into its heap and, among equal keys, is
  // drawn again in index order.
  PackHeap heap{LowerPriority{}, {{0.3, 4}, {0.3, 1}, {0.1, 0}}};
  EXPECT_EQ(pop_top(heap).index, 1u);
  heap.push(HeapElem{0.3, 1});
  heap.push(HeapElem{0.3, 2});
  EXPECT_EQ(drain_indices(heap), (std::vector<std::uint32_t>{1, 2, 4, 0}));
}

TEST(BinaryHeap, PushedElementTyingTheSortedHeadGoesByIndex) {
  // Pushed elements wait beside the sorted initial elements; one whose key
  // equals the sorted head's comes out before it at a smaller index and
  // after it at a larger one.
  PackHeap heap{LowerPriority{}, {{0.5, 3}, {0.2, 1}, {0.5, 7}}};
  EXPECT_EQ(pop_top(heap).index, 3u);
  heap.push(HeapElem{0.5, 9});
  heap.push(HeapElem{0.5, 5});
  EXPECT_EQ(heap.size(), 4u);
  EXPECT_EQ(heap.top().index, 5u);
  EXPECT_EQ(drain_indices(heap), (std::vector<std::uint32_t>{5, 7, 9, 1}));
}

TEST(BinaryHeap, InterleavedPushPopKeepsInvariant) {
  // Every pop returns the greatest element left, checked against a set
  // ordered the same way; keys come from eight values, so ties are common.
  util::Rng rng{99};
  PackHeap heap;
  std::set<HeapElem, LowerPriority> left;
  std::uint32_t next = 0;
  for (int round = 0; round < 2000; ++round) {
    if (heap.empty() || rng.uniform01() < 0.6) {
      const HeapElem e{static_cast<double>(rng.uniform_int(0, 7)) / 8.0,
                       next++};
      heap.push(e);
      left.insert(e);
    } else {
      const HeapElem greatest = *left.rbegin();
      left.erase(std::prev(left.end()));
      ASSERT_EQ(pop_top(heap).index, greatest.index) << "round " << round;
    }
  }
}

TEST(BinaryHeap, EvictionPushesInterleaveWithTheSortedRun) {
  // Pack_Disks' pattern: built once, then popped, with some popped
  // elements pushed back (evictions).  Every pop returns the greatest
  // element left; keys come from eight values, so ties are common.
  util::Rng rng{7};
  std::vector<HeapElem> elems;
  for (std::uint32_t i = 0; i < 1000; ++i) {
    elems.push_back(
        HeapElem{static_cast<double>(rng.uniform_int(0, 7)) / 8.0, i});
  }
  PackHeap heap{LowerPriority{}, elems};
  std::set<HeapElem, LowerPriority> left(elems.begin(), elems.end());
  std::vector<HeapElem> popped;
  while (!heap.empty()) {
    if (!popped.empty() && rng.uniform01() < 0.3) {
      const std::size_t k = rng.uniform_int(0, popped.size() - 1);
      heap.push(popped[k]);
      left.insert(popped[k]);
      popped.erase(popped.begin() + static_cast<std::ptrdiff_t>(k));
      continue;
    }
    const HeapElem greatest = *left.rbegin();
    left.erase(std::prev(left.end()));
    const HeapElem got = pop_top(heap);
    ASSERT_EQ(got.index, greatest.index);
    popped.push_back(got);
    if (popped.size() > 20) popped.erase(popped.begin());
  }
  EXPECT_TRUE(left.empty());
}

TEST(BinaryHeap, TieBreakDeterminism) {
  PackHeap heap{LowerPriority{}, {{1.0, 5}, {1.0, 2}, {1.0, 9}, {0.5, 1}}};
  EXPECT_EQ(drain_indices(heap), (std::vector<std::uint32_t>{2, 5, 9, 1}));
}

// Property sweep: the pop sequence of a heap built from random keys (many
// equal) equals the elements sorted by LowerPriority, descending.
class HeapSortProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(HeapSortProperty, MatchesStdSort) {
  const std::size_t n = GetParam();
  util::Rng rng{1000 + n};
  std::vector<HeapElem> elems(n);
  for (std::size_t i = 0; i < n; ++i) {
    elems[i] = HeapElem{static_cast<double>(rng.uniform_int(0, 500)) / 500.0,
                        static_cast<std::uint32_t>(i)};
  }
  PackHeap heap{LowerPriority{}, elems};
  std::sort(elems.rbegin(), elems.rend(), LowerPriority{});
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(pop_top(heap).index, elems[i].index) << "i=" << i << " n=" << n;
  }
  EXPECT_TRUE(heap.empty());
}

INSTANTIATE_TEST_SUITE_P(Sizes, HeapSortProperty,
                         ::testing::Values(1, 2, 3, 7, 10, 64, 100, 1000,
                                           4096));

} // namespace
} // namespace spindown::core
