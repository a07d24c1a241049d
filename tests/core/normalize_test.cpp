#include "core/normalize.h"

#include <gtest/gtest.h>

#include "util/units.h"
#include "workload/catalog.h"

namespace spindown::core {
namespace {

workload::FileCatalog two_file_catalog() {
  std::vector<workload::FileInfo> files{
      {0, util::mb(100.0), 0.8},
      {1, util::mb(250.0), 0.2},
  };
  return workload::FileCatalog{files};
}

TEST(Normalize, SizesScaledByDiskCapacity) {
  LoadModel model;
  model.rate = 0.01;
  model.load_fraction = 1.0;
  const auto items = normalize(two_file_catalog(), model);
  ASSERT_EQ(items.size(), 2u);
  EXPECT_NEAR(items[0].s, 100e6 / 500e9, 1e-15); // 100 MB / 500 GB
  EXPECT_NEAR(items[1].s, 250e6 / 500e9, 1e-15);
  EXPECT_EQ(items[0].index, 0u);
}

TEST(Normalize, LoadIsRateTimesPopularityTimesServiceOverL) {
  LoadModel model;
  model.rate = 0.2;
  model.load_fraction = 0.5;
  const auto items = normalize(two_file_catalog(), model);
  const double mu0 = model.disk.service_time(util::mb(100.0));
  EXPECT_NEAR(items[0].l, 0.2 * 0.8 * mu0 / 0.5, 1e-12);
}

TEST(Normalize, PaperSimpleServiceModel) {
  LoadModel model;
  model.rate = 0.1;
  model.load_fraction = 1.0;
  model.include_positioning = false; // l_i = r_i * s_i / B
  const auto items = normalize(two_file_catalog(), model);
  EXPECT_NEAR(items[0].l, 0.1 * 0.8 * (100e6 / 72e6), 1e-9);
}

TEST(Normalize, ThrowsWhenFileExceedsDisk) {
  std::vector<workload::FileInfo> files{{0, util::gb(600.0), 1.0}};
  const workload::FileCatalog cat{files};
  LoadModel model;
  EXPECT_THROW(normalize(cat, model), std::invalid_argument);
}

TEST(Normalize, ThrowsWhenFileLoadExceedsDisk) {
  // A single file so hot it saturates more than one disk's service rate.
  std::vector<workload::FileInfo> files{{0, util::gb(400.0), 1.0}};
  const workload::FileCatalog cat{files};
  LoadModel model;
  model.rate = 10.0; // 10/s * ~5558 s service >> 1
  EXPECT_THROW(normalize(cat, model), std::invalid_argument);
}

TEST(Normalize, ParameterValidation) {
  const auto cat = two_file_catalog();
  LoadModel model;
  model.rate = 0.0;
  EXPECT_THROW(normalize(cat, model), std::invalid_argument);
  model = LoadModel{};
  model.load_fraction = 0.0;
  EXPECT_THROW(normalize(cat, model), std::invalid_argument);
  model = LoadModel{};
  model.load_fraction = 1.5;
  EXPECT_THROW(normalize(cat, model), std::invalid_argument);
}

TEST(Utilization, SumsTheInstance) {
  LoadModel model;
  model.rate = 0.1;
  model.load_fraction = 1.0;
  const auto items = normalize(two_file_catalog(), model);
  const auto u = utilization(items);
  EXPECT_NEAR(u.space_disks, 350e6 / 500e9, 1e-15);
  EXPECT_GT(u.load_disks, 0.0);
}

// Load must scale linearly with R (the paper's key sweep variable).
class RateScaling : public ::testing::TestWithParam<double> {};

TEST_P(RateScaling, LoadLinearInRate) {
  LoadModel base;
  base.rate = 0.1;
  base.load_fraction = 1.0;
  LoadModel scaled = base;
  scaled.rate = GetParam();
  const auto cat = two_file_catalog();
  const auto items1 = normalize(cat, base);
  const auto itemsR = normalize(cat, scaled);
  const double factor = GetParam() / base.rate;
  for (std::size_t i = 0; i < items1.size(); ++i) {
    EXPECT_NEAR(itemsR[i].l, items1[i].l * factor, 1e-9);
    EXPECT_DOUBLE_EQ(itemsR[i].s, items1[i].s);
  }
}

INSTANTIATE_TEST_SUITE_P(Rates, RateScaling,
                         ::testing::Values(0.05, 0.2, 0.3));

} // namespace
} // namespace spindown::core
