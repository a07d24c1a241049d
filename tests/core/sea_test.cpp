#include "core/sea.h"

#include <gtest/gtest.h>

#include <set>

#include "core/bounds.h"
#include "instance_helpers.h"

namespace spindown::core {
namespace {

using testing::random_instance;

TEST(SeaAllocator, RejectsBadShare) {
  EXPECT_THROW(SeaAllocator{0.0}, std::invalid_argument);
  EXPECT_THROW(SeaAllocator{1.5}, std::invalid_argument);
  EXPECT_NO_THROW(SeaAllocator{1.0});
}

TEST(SeaAllocator, EmptyAndSingle) {
  SeaAllocator sea;
  EXPECT_EQ(sea.allocate(std::vector<Item>{}).disk_count, 0u);
  const std::vector<Item> one{{0.2, 0.3, 0}};
  const auto a = sea.allocate(one);
  EXPECT_EQ(a.disk_count, 1u);
  EXPECT_TRUE(is_feasible(a, one));
  EXPECT_EQ(sea.hot_disks(), 1u); // the only file is the whole hot set
}

TEST(SeaAllocator, HotFilesStripedAcrossHotZone) {
  // Four hot files carrying nearly all load, many cold files.
  std::vector<Item> items;
  std::uint32_t idx = 0;
  for (int i = 0; i < 4; ++i) items.push_back({0.05, 0.6, idx++});
  for (int i = 0; i < 40; ++i) items.push_back({0.05, 0.001, idx++});
  SeaAllocator sea{0.8};
  const auto a = sea.allocate(items);
  ASSERT_TRUE(is_feasible(a, items));
  // The 4 hot files (load 0.6 each) cannot share disks: 4 distinct disks,
  // all inside the hot zone.
  std::set<std::uint32_t> hot_homes{a.disk_of[0], a.disk_of[1], a.disk_of[2],
                                    a.disk_of[3]};
  EXPECT_EQ(hot_homes.size(), 4u);
  for (const auto d : hot_homes) EXPECT_LT(d, sea.hot_disks());
}

TEST(SeaAllocator, ColdZoneHoldsOnlyColdFiles) {
  std::vector<Item> items;
  std::uint32_t idx = 0;
  for (int i = 0; i < 3; ++i) items.push_back({0.1, 0.5, idx++});
  for (int i = 0; i < 30; ++i) items.push_back({0.2, 0.002, idx++});
  SeaAllocator sea{0.8};
  const auto a = sea.allocate(items);
  ASSERT_TRUE(is_feasible(a, items));
  // Every disk at index >= hot_disks() holds only low-load files.
  for (const auto& it : items) {
    if (a.disk_of[it.index] >= sea.hot_disks()) {
      EXPECT_LT(it.l, 0.1) << "hot item leaked into the cold zone";
    }
  }
}

TEST(SeaAllocator, ConsecutiveHotItemsOnDifferentSpindles) {
  // The striping property: equally hot small files go round-robin.
  std::vector<Item> items;
  for (std::uint32_t i = 0; i < 12; ++i) items.push_back({0.01, 0.3, i});
  SeaAllocator sea{1.0};
  const auto a = sea.allocate(items);
  ASSERT_TRUE(is_feasible(a, items));
  ASSERT_GE(sea.hot_disks(), 3u);
  // The first hot_disks() items land on distinct disks.
  std::set<std::uint32_t> first;
  for (std::uint32_t i = 0; i < sea.hot_disks(); ++i) {
    first.insert(a.disk_of[i]);
  }
  EXPECT_EQ(first.size(), sea.hot_disks());
}

class SeaFeasibility : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeaFeasibility, RandomInstances) {
  const auto items = random_instance(1500, 0.1, GetParam());
  SeaAllocator sea{0.8};
  const auto a = sea.allocate(items);
  EXPECT_TRUE(is_feasible(a, items));
  EXPECT_GE(a.disk_count, bound_report(items).lower_bound);
  EXPECT_LE(sea.hot_disks(), a.disk_count);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeaFeasibility, ::testing::Values(1, 2, 3, 4));

TEST(SeaAllocator, DeterministicAndNamed) {
  const auto items = random_instance(400, 0.1, 9);
  SeaAllocator sea{0.7};
  EXPECT_EQ(sea.allocate(items).disk_of, sea.allocate(items).disk_of);
}

TEST(SeaAllocator, ZeroLoadInstanceIsAllCold) {
  std::vector<Item> items;
  for (std::uint32_t i = 0; i < 10; ++i) items.push_back({0.3, 0.0, i});
  SeaAllocator sea{0.8};
  const auto a = sea.allocate(items);
  EXPECT_TRUE(is_feasible(a, items));
  EXPECT_EQ(sea.hot_disks(), 0u);
}

} // namespace
} // namespace spindown::core
