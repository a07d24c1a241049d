// equivalence_test.cpp — the O(n log n) Pack_Disks must make *identical*
// packing decisions to the O(n^2) Chang–Hwang–Park reference (§3.1: the
// improvement is purely a data-structure change), and Pack_Disks_v's
// mappings for v = 1..8 are pinned to hashes captured from a known-good
// build.
#include <gtest/gtest.h>

#include <array>
#include <map>

#include "core/chang_reference.h"
#include "core/pack_disks.h"
#include "instance_helpers.h"
#include "support/physical_digest.h"

namespace spindown::core {
namespace {

using testing::random_instance;
using testing::skewed_instance;

struct EquivCase {
  std::size_t n;
  double max_coord;
  std::uint64_t seed;
  bool skewed;
};

std::vector<Item> make_items(const EquivCase& c) {
  return c.skewed ? skewed_instance(c.n, c.max_coord, c.seed)
                  : random_instance(c.n, c.max_coord, c.seed);
}

/// Many identical items: tie-breaking by index decides every draw.
std::vector<Item> tie_heavy_items() {
  std::vector<Item> items;
  for (std::uint32_t i = 0; i < 200; ++i) items.push_back({0.21, 0.21, i});
  for (std::uint32_t i = 200; i < 400; ++i) items.push_back({0.1, 0.3, i});
  return items;
}

/// FNV-1a of Pack_Disks_v's mapping (disk_count, then every disk_of) for
/// v = 1..8.
using GroupHashes = std::array<std::string, 8>;

GroupHashes group_hashes(const std::vector<Item>& items) {
  GroupHashes out;
  for (std::size_t v = 1; v <= out.size(); ++v) {
    PackDisks pack{v};
    const auto a = pack.allocate(items);
    test_support::Fnv1a h;
    h.add(std::uint64_t{a.disk_count});
    for (const auto d : a.disk_of) h.add(std::uint64_t{d});
    out[v - 1] = h.hex();
  }
  return out;
}

class PackingEquivalence : public ::testing::TestWithParam<EquivCase> {};

TEST_P(PackingEquivalence, FastMatchesReference) {
  const auto items = make_items(GetParam());
  PackDisks fast;
  ChangHwangPark reference;
  const auto a = fast.allocate(items);
  const auto b = reference.allocate(items);
  ASSERT_EQ(a.disk_count, b.disk_count);
  EXPECT_EQ(a.disk_of, b.disk_of);
}

// Keyed by the case's seed.
const std::map<std::uint64_t, GroupHashes> kPinnedGroupHashes = {
    {1,
     {"392209f14dea4c24", "392209f14dea4c24", "392209f14dea4c24",
      "392209f14dea4c24", "392209f14dea4c24", "392209f14dea4c24",
      "392209f14dea4c24", "392209f14dea4c24"}},
    {2,
     {"5b2a969b42d238a4", "b026cb457020ada6", "b026cb457020ada6",
      "b026cb457020ada6", "b026cb457020ada6", "b026cb457020ada6",
      "b026cb457020ada6", "b026cb457020ada6"}},
    {3,
     {"b133f99fddaa56e6", "e8e70f7744d750a0", "9a267ce4be1cfe25",
      "7e959511769300a1", "a10be1b33e8b6b86", "5e392e6bfdfedf61",
      "a563d85867b541c6", "a563d85867b541c6"}},
    {4,
     {"a9ebfd6842fffe0d", "216b4f4d23fb148f", "b5d3abdfd3ef8c9b",
      "5fceaef9c9598454", "5c169d89304a2d79", "42ab3d002ff91436",
      "2ba95467671660a5", "36be25f8ee5b9715"}},
    {5,
     {"7880d6f50f2d2144", "cc5d2e66b5bb3341", "7b2a153d3721eac5",
      "39040a6dce6fcd61", "7cec249439cbe940", "44c5bd92cb944ae3",
      "4a06912c996cab03", "53c9265fbb56524d"}},
    {6,
     {"65b7154c4824b9e1", "174b3d80914243ac", "bd85a510d02b6068",
      "95800cf17f7b96b6", "813108e3f1e0e614", "a0fab764d96288ff",
      "11117af77fdc23e0", "22cb92588503b164"}},
    {7,
     {"a71eaa31bd289aeb", "28ff44c29e1798a2", "3c3146ebeca22a89",
      "924e38335240b403", "84ad88263265108a", "0b049590088f0fce",
      "de0006d488ddf8c5", "f3d5c6be63bb2a3e"}},
    {8,
     {"c4f539d8257a0d3a", "90eca210e84ff915", "1aefa5050b212879",
      "552a76c160fb5b5f", "ecddd4e1dca1688d", "753a83c7fb1e0c6c",
      "1527ecd5e1cd4e7b", "0658a98cab26b709"}},
    {9,
     {"bf8c172e4a908122", "995d6a3cae459103", "008061f8eae9864a",
      "d2e803a0962ca76a", "3ca52d24d7ccbe11", "e93c0b73ad2a51eb",
      "daf687b09f6b350b", "b4108943a2e6ade9"}},
    {10,
     {"29c5a0ce822c7b87", "19be7c839e604f22", "711a2dd67d76d3b8",
      "e184e887e72c375a", "130a118f062322b1", "3f9c71c37e1dc027",
      "df98aa8b629bd45e", "7299e3afea637416"}},
    {11,
     {"3d7cff8309310d5c", "24bdefdf5ca04b7d", "468c85466f323987",
      "9bed0617004f0e01", "8f1b2cd97b201826", "aeb2819f4b952ee2",
      "b69ca57d63fc520f", "b62ea8377d25da6e"}},
    {12,
     {"9c508abe580ea687", "dbf04c5ed60ba08c", "e20140a4aa657fab",
      "43bbcc3f21a8c38b", "0e620ef66f4c384d", "7e39e45beef60365",
      "732836daec96a847", "0ef3a64a8f93c56d"}},
};

TEST_P(PackingEquivalence, GroupSizeMappingsPinned) {
  const auto it = kPinnedGroupHashes.find(GetParam().seed);
  ASSERT_NE(it, kPinnedGroupHashes.end());
  EXPECT_EQ(group_hashes(make_items(GetParam())), it->second);
}

INSTANTIATE_TEST_SUITE_P(
    Instances, PackingEquivalence,
    ::testing::Values(EquivCase{1, 0.5, 1, false},
                      EquivCase{2, 0.5, 2, false},
                      EquivCase{10, 0.4, 3, false},
                      EquivCase{100, 0.3, 4, false},
                      EquivCase{100, 0.05, 5, false},
                      EquivCase{500, 0.1, 6, false},
                      EquivCase{1000, 0.02, 7, false},
                      EquivCase{250, 0.7, 8, false},
                      EquivCase{500, 0.2, 9, true},
                      EquivCase{1000, 0.08, 10, true},
                      EquivCase{333, 0.33, 11, true},
                      EquivCase{2000, 0.01, 12, true}));

TEST(PackingEquivalence, TieHeavyInstance) {
  // Tie-breaking by index must keep both implementations in lockstep.
  const auto items = tie_heavy_items();
  PackDisks fast;
  ChangHwangPark reference;
  const auto a = fast.allocate(items);
  const auto b = reference.allocate(items);
  EXPECT_EQ(a.disk_of, b.disk_of);
}

TEST(PackingEquivalence, TieHeavyGroupSizeMappingsPinned) {
  const GroupHashes pinned = {
      "d9a695136d03a0f4", "66e6ba810c12b875", "38be7ae17e0ddd94",
      "5bf760e7364ba0f5", "df269de7c9d28325", "91f4e35094cbe9b7",
      "6ac4ad301253e85b", "dd1d1a85aedea0f5"};
  EXPECT_EQ(group_hashes(tie_heavy_items()), pinned);
}

} // namespace
} // namespace spindown::core
