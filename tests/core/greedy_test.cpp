#include "core/greedy.h"

#include <gtest/gtest.h>

#include <iterator>
#include <memory>

#include "core/bounds.h"
#include "instance_helpers.h"

namespace spindown::core {
namespace {

using testing::random_instance;

TEST(FirstFit, PacksInOrder) {
  FirstFit ff;
  const std::vector<Item> items{{0.6, 0.1, 0}, {0.5, 0.1, 1}, {0.4, 0.1, 2}};
  const auto a = ff.allocate(items);
  // 0.6 -> disk 0; 0.5 doesn't fit disk 0 -> disk 1; 0.4 fits disk 0.
  EXPECT_EQ(a.disk_of[0], 0u);
  EXPECT_EQ(a.disk_of[1], 1u);
  EXPECT_EQ(a.disk_of[2], 0u);
  EXPECT_EQ(a.disk_count, 2u);
}

TEST(FirstFit, RespectsBothDimensions) {
  FirstFit ff;
  // Fits by size but not by load.
  const std::vector<Item> items{{0.2, 0.9, 0}, {0.2, 0.9, 1}};
  const auto a = ff.allocate(items);
  EXPECT_EQ(a.disk_count, 2u);
  EXPECT_TRUE(is_feasible(a, items));
}

TEST(BestFit, PrefersTighterDisk) {
  BestFit bf;
  // After the first two items, disk 0 has slack (0.3, 0.9), disk 1 has
  // slack (0.5, 0.9).  The third item (0.3, 0.1) fits both; best-fit picks
  // disk 0 (smaller remaining slack).
  const std::vector<Item> items{
      {0.7, 0.1, 0}, {0.5, 0.1, 1}, {0.3, 0.1, 2}};
  const auto a = bf.allocate(items);
  EXPECT_EQ(a.disk_of[0], 0u);
  EXPECT_EQ(a.disk_of[1], 1u);
  EXPECT_EQ(a.disk_of[2], 0u);
}

TEST(FirstFitDecreasing, SortsByMaxCoordinate) {
  FirstFitDecreasing ffd;
  // In input order, FF would open three disks; FFD pairs big with small.
  const std::vector<Item> items{
      {0.3, 0.0, 0}, {0.7, 0.0, 1}, {0.3, 0.0, 2}, {0.6, 0.0, 3}};
  const auto a = ffd.allocate(items);
  EXPECT_EQ(a.disk_count, 2u);
  EXPECT_TRUE(is_feasible(a, items));
}

class GreedyFeasibility : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GreedyFeasibility, AllHeuristicsFeasible) {
  const auto items = random_instance(1200, 0.15, GetParam());
  std::unique_ptr<Allocator> allocators[] = {
      std::make_unique<FirstFit>(), std::make_unique<BestFit>(),
      std::make_unique<FirstFitDecreasing>()};
  for (std::size_t i = 0; i < std::size(allocators); ++i) {
    const auto a = allocators[i]->allocate(items);
    EXPECT_TRUE(is_feasible(a, items)) << "allocator " << i;
    EXPECT_GE(a.disk_count, bound_report(items).lower_bound)
        << "allocator " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GreedyFeasibility,
                         ::testing::Values(1, 2, 3, 4, 5));

} // namespace
} // namespace spindown::core
