#include "workload/catalog.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "util/math.h"
#include "util/units.h"

namespace spindown::workload {
namespace {

TEST(FileCatalog, RequiresDenseIds) {
  std::vector<FileInfo> files{{0, 100, 0.5}, {2, 100, 0.5}};
  EXPECT_THROW(FileCatalog{files}, std::invalid_argument);
}

TEST(FileCatalog, TotalsAndLookup) {
  std::vector<FileInfo> files{{0, 100, 0.25}, {1, 300, 0.75}};
  const FileCatalog cat{files};
  EXPECT_EQ(cat.size(), 2u);
  EXPECT_EQ(cat.total_bytes(), 400u);
  EXPECT_EQ(cat.by_id(1).size, 300u);
  EXPECT_EQ(cat.min_size(), 100u);
  EXPECT_EQ(cat.max_size(), 300u);
  EXPECT_DOUBLE_EQ(cat.mean_request_bytes(), 0.25 * 100 + 0.75 * 300);
}

TEST(FileCatalog, NormalizePopularity) {
  std::vector<FileInfo> files{{0, 1, 3.0}, {1, 1, 1.0}};
  FileCatalog cat{files};
  cat.normalize_popularity();
  EXPECT_DOUBLE_EQ(cat[0].popularity, 0.75);
  EXPECT_DOUBLE_EQ(cat[1].popularity, 0.25);
}

// --- The synthesized catalog must reproduce the paper's Table 1 --------

class PaperCatalog : public ::testing::Test {
protected:
  static const FileCatalog& catalog() {
    static const FileCatalog cat = [] {
      util::Rng rng{1};
      return generate_catalog(SyntheticSpec::paper_table1(), rng);
    }();
    return cat;
  }
};

TEST_F(PaperCatalog, FileCountMatchesTable1) {
  EXPECT_EQ(catalog().size(), 40'000u);
}

TEST_F(PaperCatalog, SizeBoundsMatchTable1) {
  // Table 1: minimum 188 MB, maximum 20 GB.  The minimum emerges from the
  // inverse-Zipf construction: S_max / n^(1-theta) ~ 184 MB (the paper
  // rounds to 188 MB).
  EXPECT_EQ(catalog().max_size(), util::gb(20.0));
  EXPECT_NEAR(static_cast<double>(catalog().min_size()),
              static_cast<double>(util::mb(188.0)), 8e6);
}

TEST_F(PaperCatalog, TotalSpaceMatchesTable1) {
  // Table 1: 12.86 TB.  Allow 5%: the paper's rounding of theta affects it.
  EXPECT_NEAR(static_cast<double>(catalog().total_bytes()),
              static_cast<double>(util::tb(12.86)),
              static_cast<double>(util::tb(12.86)) * 0.05);
}

TEST_F(PaperCatalog, PopularitySumsToOne) {
  double sum = 0.0;
  for (const auto& f : catalog().files()) sum += f.popularity;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST_F(PaperCatalog, InverseSizeFrequencyRelation) {
  // "a file has an inverse relation between its access frequency and its
  // size": the hottest file is the smallest, the coldest the largest.
  const auto& files = catalog().files();
  EXPECT_EQ(files.front().size, catalog().min_size());
  EXPECT_EQ(files.back().size, catalog().max_size());
  // Monotone: higher popularity -> smaller or equal size.
  for (std::size_t i = 1; i < files.size(); ++i) {
    EXPECT_GE(files[i].size, files[i - 1].size);
    EXPECT_LT(files[i].popularity, files[i - 1].popularity);
  }
}

TEST(CatalogCorrelationModes, DirectPutsBigFilesFirst) {
  SyntheticSpec spec;
  spec.n_files = 100;
  spec.correlation = SizeCorrelation::kDirect;
  util::Rng rng{2};
  const auto cat = generate_catalog(spec, rng);
  EXPECT_EQ(cat[0].size, cat.max_size());
  EXPECT_EQ(cat[99].size, cat.min_size());
}

TEST(CatalogCorrelationModes, IndependentIsAPermutationOfInverse) {
  SyntheticSpec spec;
  spec.n_files = 200;
  util::Rng rng1{3}, rng2{3};
  spec.correlation = SizeCorrelation::kInverse;
  const auto inv = generate_catalog(spec, rng1);
  spec.correlation = SizeCorrelation::kIndependent;
  const auto ind = generate_catalog(spec, rng2);
  // Same multiset of sizes, same total.
  EXPECT_EQ(inv.total_bytes(), ind.total_bytes());
  EXPECT_EQ(inv.min_size(), ind.min_size());
  EXPECT_EQ(inv.max_size(), ind.max_size());
  // But not the same order (overwhelmingly likely for 200 files).
  bool any_differs = false;
  for (std::size_t i = 0; i < 200; ++i) {
    if (inv[i].size != ind[i].size) any_differs = true;
  }
  EXPECT_TRUE(any_differs);
}

TEST(LayoutExtents, PacksPerDiskInFileIdOrder) {
  std::vector<FileInfo> files{
      {0, util::mb(1.0), 0.25},  // 1954 blocks
      {1, util::mb(2.0), 0.25},  // 3907 blocks
      {2, util::mb(0.5), 0.25},  // 977 blocks
      {3, 100, 0.25},            // 1 block
  };
  const FileCatalog cat{files};
  const auto ext = layout_extents(cat, {0, 1, 0, 1}, 2);
  ASSERT_EQ(ext.size(), 4u);
  // Disk 0 holds files 0 and 2, contiguously from LBA 0.
  EXPECT_EQ(ext[0].lba, 0u);
  EXPECT_EQ(ext[0].blocks, util::blocks_of(util::mb(1.0)));
  EXPECT_EQ(ext[2].lba, ext[0].blocks);
  EXPECT_EQ(ext[2].blocks, util::blocks_of(util::mb(0.5)));
  // Disk 1 holds files 1 and 3, in its own address space.
  EXPECT_EQ(ext[1].lba, 0u);
  EXPECT_EQ(ext[3].lba, ext[1].blocks);
  EXPECT_EQ(ext[3].blocks, 1u);
}

TEST(LayoutExtents, ComputesCatalogLayoutExtents) {
  // Mapping {0, 1, 0} on a three-disk farm: files 0 and 2 share disk 0,
  // packed in id order; disk 2 holds nothing and shifts no extent.
  std::vector<FileInfo> files{{0, util::mb(72.0), 0.5},
                              {1, util::mb(144.0), 0.3},
                              {2, util::mb(36.0), 0.2}};
  const FileCatalog cat{files};
  const auto ext = layout_extents(cat, {0, 1, 0}, 3);
  ASSERT_EQ(ext.size(), 3u);
  EXPECT_EQ(ext[0].lba, 0u);
  EXPECT_EQ(ext[0].blocks, util::blocks_of(util::mb(72.0)));
  EXPECT_EQ(ext[1].lba, 0u); // its own disk's address space
  EXPECT_EQ(ext[1].blocks, util::blocks_of(util::mb(144.0)));
  EXPECT_EQ(ext[2].lba, util::blocks_of(util::mb(72.0)));
  EXPECT_EQ(ext[2].blocks, util::blocks_of(util::mb(36.0)));
}

TEST(LayoutExtents, ExtentsNeverOverlapWithinADisk) {
  SyntheticSpec spec;
  spec.n_files = 300;
  util::Rng rng{9};
  const auto cat = generate_catalog(spec, rng);
  std::vector<std::uint32_t> mapping(cat.size());
  for (std::size_t i = 0; i < cat.size(); ++i) {
    mapping[i] = static_cast<std::uint32_t>(i % 7);
  }
  const auto ext = layout_extents(cat, mapping, 7);
  // Per disk: sort extents by lba and verify back-to-back packing.
  for (std::uint32_t d = 0; d < 7; ++d) {
    std::vector<FileExtent> on_disk;
    for (std::size_t i = 0; i < cat.size(); ++i) {
      if (mapping[i] == d) on_disk.push_back(ext[i]);
    }
    std::sort(on_disk.begin(), on_disk.end(),
              [](const FileExtent& a, const FileExtent& b) {
                return a.lba < b.lba;
              });
    std::uint64_t cursor = 0;
    for (const auto& e : on_disk) {
      EXPECT_EQ(e.lba, cursor); // contiguous: no holes, no overlap
      cursor += e.blocks;
    }
  }
}

TEST(LayoutExtents, ValidatesMapping) {
  const auto files = std::vector<FileInfo>{{0, util::mb(1.0), 1.0}};
  const FileCatalog cat{files};
  EXPECT_THROW(layout_extents(cat, {}, 1), std::invalid_argument);
  EXPECT_THROW(layout_extents(cat, {5}, 1), std::invalid_argument);
}

TEST(CatalogGeneration, EmptySpecYieldsEmptyCatalog) {
  SyntheticSpec spec;
  spec.n_files = 0;
  util::Rng rng{4};
  const auto cat = generate_catalog(spec, rng);
  EXPECT_TRUE(cat.empty());
}

TEST(CatalogGeneration, CustomExponentRespected) {
  SyntheticSpec spec;
  spec.n_files = 1000;
  spec.zipf_exponent = 1.1;
  util::Rng rng{5};
  const auto cat = generate_catalog(spec, rng);
  // pmf(1)/pmf(2) = 2^1.1.
  EXPECT_NEAR(cat[0].popularity / cat[1].popularity, std::pow(2.0, 1.1), 1e-9);
}

} // namespace
} // namespace spindown::workload
