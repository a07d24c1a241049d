// equivalence_test.cpp — the O(n log n) Pack_Disks must make *identical*
// packing decisions to the O(n^2) Chang–Hwang–Park reference (§3.1: the
// improvement is purely a data-structure change), the reference's runtime
// check of the §3.1 lemmas must pass on every instance, and Pack_Disks_v's
// mappings for v = 1..8 are pinned to hashes captured from a known-good
// build.
#include "core/chang_reference.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>

#include "core/pack_disks.h"
#include "instance_helpers.h"
#include "support/physical_digest.h"

namespace spindown::core {
namespace {

using testing::InstanceCase;
using testing::random_instance;

/// Many identical items: tie-breaking by index decides every draw.
std::vector<Item> tie_heavy_items() {
  std::vector<Item> items;
  for (std::uint32_t i = 0; i < 200; ++i) items.push_back({0.21, 0.21, i});
  for (std::uint32_t i = 200; i < 400; ++i) items.push_back({0.1, 0.3, i});
  return items;
}

/// Runs both packers on `items`, asserts identical assignments and a clean
/// lemma audit, and returns the reference's report.
AuditReport expect_equivalent(const std::vector<Item>& items) {
  PackDisks fast;
  ChangHwangPark reference;
  const auto a = fast.allocate(items);
  Assignment b;
  EXPECT_NO_THROW(b = reference.allocate(items));
  EXPECT_EQ(a.disk_count, b.disk_count);
  EXPECT_EQ(a.disk_of, b.disk_of);
  return reference.report();
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

/// Runs both packers on a generated case, asserts identical assignments,
/// and checks the reference's §3.1 lemma report.
void expect_equivalent_and_audited(const InstanceCase& c) {
  const auto items = c.items();
  const auto report = expect_equivalent(items);

  // Lemma 7 accounting: each element is popped at most once per residence,
  // and every eviction creates exactly one extra residence.
  EXPECT_LE(report.steps + report.remaining_packed,
            items.size() + report.evictions);
  // Every eviction was lemma-checked and closed a complete disk.
  EXPECT_EQ(report.evictions, report.lemma12_checks);
  EXPECT_EQ(report.evictions, report.lemma34_checks);
  // At most one disk incomplete in both dimensions (Lemma 6 / Theorem 1).
  EXPECT_LE(report.incomplete_disks, 1u);
  EXPECT_DOUBLE_EQ(report.rho, rho(items));
}

class PackingEquivalence : public ::testing::TestWithParam<InstanceCase> {};

TEST_P(PackingEquivalence, FastMatchesReference) {
  expect_equivalent_and_audited(GetParam());
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
  EXPECT_EQ(group_hashes(GetParam().items()), it->second);
}

INSTANTIATE_TEST_SUITE_P(
    Instances, PackingEquivalence,
    ::testing::Values(InstanceCase{1, 0.5, 1, false},
                      InstanceCase{2, 0.5, 2, false},
                      InstanceCase{10, 0.4, 3, false},
                      InstanceCase{100, 0.3, 4, false},
                      InstanceCase{100, 0.05, 5, false},
                      InstanceCase{500, 0.1, 6, false},
                      InstanceCase{1000, 0.02, 7, false},
                      InstanceCase{250, 0.7, 8, false},
                      InstanceCase{500, 0.2, 9, true},
                      InstanceCase{1000, 0.08, 10, true},
                      InstanceCase{333, 0.33, 11, true},
                      InstanceCase{2000, 0.01, 12, true}));

// The same checks on a second list of instance shapes.
class LemmaAudit : public ::testing::TestWithParam<InstanceCase> {};

TEST_P(LemmaAudit, AllInvariantsHoldAndOutputsMatch) {
  expect_equivalent_and_audited(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Instances, LemmaAudit,
    ::testing::Values(InstanceCase{1, 0.9, 1, false},
                      InstanceCase{10, 0.5, 2, false},
                      InstanceCase{100, 0.3, 3, false},
                      InstanceCase{500, 0.1, 4, false},
                      InstanceCase{1000, 0.05, 5, false},
                      InstanceCase{2000, 0.02, 6, false},
                      InstanceCase{200, 0.8, 7, false},
                      InstanceCase{500, 0.2, 8, true},
                      InstanceCase{1000, 0.1, 9, true},
                      InstanceCase{1500, 0.04, 10, true}));

TEST(PackingEquivalence, TieHeavyInstance) {
  // Tie-breaking by index must keep both implementations in lockstep.
  expect_equivalent(tie_heavy_items());
}

TEST(PackingEquivalence, TieHeavyGroupSizeMappingsPinned) {
  const GroupHashes pinned = {
      "d9a695136d03a0f4", "66e6ba810c12b875", "38be7ae17e0ddd94",
      "5bf760e7364ba0f5", "df269de7c9d28325", "91f4e35094cbe9b7",
      "6ac4ad301253e85b", "dd1d1a85aedea0f5"};
  EXPECT_EQ(group_hashes(tie_heavy_items()), pinned);
}

// Coordinates on a coarse grid make exact ties with the completeness
// threshold 1 - rho common; a tolerance in a packing decision (closing at
// S >= 1 - rho - eps) splits such disks where PackDisks does not.
constexpr double kGrid[] = {0.05, 0.1,  0.15, 0.2, 0.25,    0.3,
                            0.35, 0.45, 0.6,  0.7, 1.0 / 3, 1.0 / 7};

TEST(PackingEquivalence, GridTieInstance) {
  const std::vector<Item> items{{0.3, 0.35, 0},     {0.45, 1.0 / 7, 1},
                                {1.0 / 7, 0.25, 2}, {0.7, 0.1, 3},
                                {1.0 / 7, 0.05, 4}, {1.0 / 7, 0.7, 5},
                                {1.0 / 3, 0.35, 6}};
  EXPECT_EQ(PackDisks{}.allocate(items).disk_count, 4u);
  expect_equivalent(items);
}

TEST(PackingEquivalence, GridTieSweep) {
  util::Rng rng{2024};
  for (int t = 0; t < 20'000; ++t) {
    std::vector<Item> items(rng.uniform_int(2, 14));
    for (std::size_t i = 0; i < items.size(); ++i) {
      items[i].index = static_cast<std::uint32_t>(i);
      items[i].s = kGrid[rng.uniform_int(0, std::size(kGrid) - 1)];
      items[i].l = kGrid[rng.uniform_int(0, std::size(kGrid) - 1)];
    }
    expect_equivalent(items);
    ASSERT_FALSE(HasFailure()) << "grid instance " << t;
  }
}

TEST(LemmaAudit, ManySeedsSweep) {
  // Breadth over depth: quick audits across many seeds and shapes.
  ChangHwangPark reference;
  for (std::uint64_t seed = 100; seed < 160; ++seed) {
    const double max_coord = 0.01 + 0.015 * static_cast<double>(seed % 60);
    const auto items = random_instance(300, max_coord, seed);
    ASSERT_NO_THROW(reference.allocate(items)) << "seed " << seed;
  }
}

TEST(LemmaAudit, EvictionHeavyInstanceExercisesLemmas) {
  // Alternating large size-heavy and load-heavy items force evictions;
  // the audit must see some and verify the completeness each time.
  std::vector<Item> items;
  std::uint32_t idx = 0;
  for (int i = 0; i < 100; ++i) {
    items.push_back({0.45, 0.02, idx++});
    items.push_back({0.02, 0.45, idx++});
    items.push_back({0.35, 0.3, idx++});
  }
  ChangHwangPark reference;
  const auto a = reference.allocate(items);
  EXPECT_TRUE(is_feasible(a, items));
  EXPECT_GT(reference.report().steps, 0u);
  // The report's closed-complete count never exceeds total disks.
  EXPECT_LE(reference.report().disks_closed_complete, a.disk_count);
}

TEST(LemmaAudit, EmptyInstance) {
  ChangHwangPark reference;
  const auto a = reference.allocate(std::vector<Item>{});
  EXPECT_EQ(a.disk_count, 0u);
  EXPECT_EQ(reference.report().steps, 0u);
}

TEST(LemmaAudit, ClosedDisksAreWellFilled) {
  // All but at most one disk reach the threshold 1 - rho in some dimension
  // when more than one disk was used (only the final disk may be emptier).
  const auto items = random_instance(3000, 0.05, 42);
  ChangHwangPark reference;
  const auto a = reference.allocate(items);
  ASSERT_GT(a.disk_count, 2u);
  std::size_t under = 0;
  for (const auto& d : disk_totals(a, items)) {
    if (std::max(d.s, d.l) < (1.0 - reference.report().rho) - 1e-9) ++under;
  }
  EXPECT_LE(under, 1u);
}

} // namespace
} // namespace spindown::core
