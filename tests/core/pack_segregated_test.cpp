#include "core/pack_segregated.h"

#include <gtest/gtest.h>

#include <set>

#include "core/bounds.h"
#include "core/pack_disks.h"
#include "instance_helpers.h"

namespace spindown::core {
namespace {

using testing::random_instance;

TEST(SegregatedPackDisks, RejectsZeroClasses) {
  EXPECT_THROW(SegregatedPackDisks{0}, std::invalid_argument);
}

TEST(SegregatedPackDisks, OneClassIsPackDisks) {
  const auto items = random_instance(600, 0.1, 3);
  SegregatedPackDisks seg{1};
  PackDisks plain;
  EXPECT_EQ(seg.allocate(items).disk_of, plain.allocate(items).disk_of);
}

TEST(SegregatedPackDisks, EmptyAndTiny) {
  SegregatedPackDisks seg{4};
  EXPECT_EQ(seg.allocate(std::vector<Item>{}).disk_count, 0u);
  const std::vector<Item> two{{0.1, 0.1, 0}, {0.9, 0.1, 1}};
  const auto a = seg.allocate(two);
  EXPECT_TRUE(is_feasible(a, two));
  // More classes than items: each lands alone.
  EXPECT_EQ(a.disk_count, 2u);
}

TEST(SegregatedPackDisks, NeverMixesExtremeSizeClasses) {
  // Half tiny files, half huge: with 2 classes no disk may hold both kinds.
  std::vector<Item> items;
  std::uint32_t idx = 0;
  for (int i = 0; i < 50; ++i) items.push_back({0.01, 0.02, idx++});
  for (int i = 0; i < 50; ++i) items.push_back({0.5, 0.02, idx++});
  SegregatedPackDisks seg{2};
  const auto a = seg.allocate(items);
  ASSERT_TRUE(is_feasible(a, items));
  std::set<std::uint32_t> small_disks, large_disks;
  for (const auto& it : items) {
    (it.s < 0.1 ? small_disks : large_disks).insert(a.disk_of[it.index]);
  }
  for (const auto d : small_disks) {
    EXPECT_FALSE(large_disks.contains(d)) << "disk " << d << " mixes classes";
  }
}

TEST(SegregatedPackDisks, WithPackDisksSharingIsPossible) {
  // Control for the previous test: plain Pack_Disks on the same instance
  // does co-locate the classes (that is the behaviour §6 flags).
  std::vector<Item> items;
  std::uint32_t idx = 0;
  for (int i = 0; i < 50; ++i) items.push_back({0.01, 0.02, idx++});
  for (int i = 0; i < 50; ++i) items.push_back({0.5, 0.02, idx++});
  PackDisks plain;
  const auto a = plain.allocate(items);
  std::set<std::uint32_t> small_disks, large_disks;
  for (const auto& it : items) {
    (it.s < 0.1 ? small_disks : large_disks).insert(a.disk_of[it.index]);
  }
  bool shared = false;
  for (const auto d : small_disks) {
    if (large_disks.contains(d)) shared = true;
  }
  EXPECT_TRUE(shared);
}

class SegregationSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SegregationSweep, FeasibleWithBoundedOverhead) {
  const auto items = random_instance(2000, 0.05, 11);
  SegregatedPackDisks seg{GetParam()};
  PackDisks plain;
  const auto a_seg = seg.allocate(items);
  const auto a_plain = plain.allocate(items);
  EXPECT_TRUE(is_feasible(a_seg, items));
  // Segregation forfeits cross-class balancing (a class's load-heavy items
  // can no longer pair with another class's size-heavy ones), so allow a
  // moderate multiplicative overhead plus one partial disk per class.
  EXPECT_LE(a_seg.disk_count,
            static_cast<std::uint32_t>(1.5 * a_plain.disk_count) +
                static_cast<std::uint32_t>(GetParam()));
  // Every item assigned to a real disk.
  for (const auto& it : items) {
    EXPECT_LT(a_seg.disk_of[it.index], a_seg.disk_count);
  }
}

INSTANTIATE_TEST_SUITE_P(Classes, SegregationSweep,
                         ::testing::Values(1, 2, 3, 4, 8));

TEST(SegregatedPackDisks, DeterministicAndNamed) {
  const auto items = random_instance(500, 0.1, 13);
  SegregatedPackDisks seg{3};
  EXPECT_EQ(seg.allocate(items).disk_of, seg.allocate(items).disk_of);
  EXPECT_EQ(seg.classes(), 3u);
}

} // namespace
} // namespace spindown::core
