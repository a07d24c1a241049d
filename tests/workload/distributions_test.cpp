#include "workload/distributions.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "util/math.h"

namespace spindown::workload {
namespace {

TEST(ZipfPopularity, PmfSumsToOne) {
  const ZipfPopularity z{1000, 0.8};
  double sum = 0.0;
  for (std::size_t r = 1; r <= z.n(); ++r) sum += z.pmf(r);
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(ZipfPopularity, MonotoneDecreasingInRank) {
  const ZipfPopularity z{500, 0.6};
  for (std::size_t r = 1; r < z.n(); ++r) {
    EXPECT_GT(z.pmf(r), z.pmf(r + 1));
  }
}

TEST(ZipfPopularity, PaperParameterization) {
  const auto z = ZipfPopularity::paper(40'000);
  EXPECT_NEAR(z.exponent(), 1.0 - util::paper_zipf_theta(), 1e-12);
  // c = 1/H_n^(1-theta): rank 1 probability equals the normalizer.
  EXPECT_NEAR(z.pmf(1), 1.0 / util::generalized_harmonic(40'000, z.exponent()),
              1e-15);
}

TEST(ZipfPopularity, RatioFollowsPowerLaw) {
  const ZipfPopularity z{100, 0.5};
  // pmf(1)/pmf(4) = 4^0.5 = 2.
  EXPECT_NEAR(z.pmf(1) / z.pmf(4), 2.0, 1e-12);
  EXPECT_NEAR(z.pmf(2) / z.pmf(8), 2.0, 1e-12);
}

TEST(ZipfPopularity, SamplingMatchesPmf) {
  const ZipfPopularity z{50, 0.9};
  util::Rng rng{123};
  std::vector<int> counts(z.n() + 1, 0);
  constexpr int kN = 300000;
  for (int i = 0; i < kN; ++i) ++counts[z.sample(rng)];
  for (std::size_t r = 1; r <= 5; ++r) {
    EXPECT_NEAR(static_cast<double>(counts[r]) / kN, z.pmf(r), 0.01)
        << "rank " << r;
  }
}

TEST(ZipfPopularity, RejectsBadArguments) {
  EXPECT_THROW((ZipfPopularity{0, 0.5}), std::invalid_argument);
  EXPECT_THROW((ZipfPopularity{10, 0.0}), std::invalid_argument);
  EXPECT_THROW((ZipfPopularity{10, -1.0}), std::invalid_argument);
}

// Property sweep over exponents: pmf sums to 1, head dominates tail.
class ZipfExponentSweep : public ::testing::TestWithParam<double> {};

TEST_P(ZipfExponentSweep, NormalizedAndSkewed) {
  const ZipfPopularity z{2000, GetParam()};
  double sum = 0.0;
  for (std::size_t r = 1; r <= z.n(); ++r) sum += z.pmf(r);
  EXPECT_NEAR(sum, 1.0, 1e-9);
  // Per-rank mass in the head strictly dominates the tail: the average
  // probability of the 20 hottest ranks exceeds the average of the bottom
  // half by at least the head/tail rank ratio raised to the exponent.
  double head = 0.0, tail = 0.0;
  for (std::size_t r = 1; r <= 20; ++r) head += z.pmf(r);
  for (std::size_t r = 1000; r <= 2000; ++r) tail += z.pmf(r);
  const double head_avg = head / 20.0;
  const double tail_avg = tail / 1001.0;
  EXPECT_GT(head_avg, tail_avg * std::pow(10.0, GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Exponents, ZipfExponentSweep,
                         ::testing::Values(0.3, 0.4425, 0.6, 0.8, 1.0, 1.2));

TEST(BoundedPareto, SamplesWithinBounds) {
  const BoundedPareto bp{1.0, 100.0, 1.2};
  util::Rng rng{17};
  for (int i = 0; i < 10000; ++i) {
    const double x = bp.sample(rng);
    EXPECT_GE(x, 1.0);
    EXPECT_LE(x, 100.0);
  }
}

TEST(BoundedPareto, EmpiricalMeanMatchesClosedForm) {
  const BoundedPareto bp{1.0, 1000.0, 0.9};
  util::Rng rng{19};
  double sum = 0.0;
  constexpr int kN = 400000;
  for (int i = 0; i < kN; ++i) sum += bp.sample(rng);
  EXPECT_NEAR(sum / kN, bp.mean(), bp.mean() * 0.02);
}

TEST(BoundedPareto, WithMeanCalibrates) {
  const double target = 544.0e6; // the NERSC mean file size in bytes
  const auto bp = BoundedPareto::with_mean(1.0e6, 20.0e9, target);
  EXPECT_NEAR(bp.mean(), target, target * 1e-6);
}

TEST(BoundedPareto, WithMeanRejectsUnreachableTargets) {
  EXPECT_THROW(BoundedPareto::with_mean(10.0, 100.0, 5.0),
               std::invalid_argument);
  EXPECT_THROW(BoundedPareto::with_mean(10.0, 100.0, 200.0),
               std::invalid_argument);
}

TEST(BoundedPareto, RejectsBadParameters) {
  EXPECT_THROW((BoundedPareto{0.0, 10.0, 1.2}), std::invalid_argument);
  EXPECT_THROW((BoundedPareto{10.0, 5.0, 1.2}), std::invalid_argument);
  EXPECT_THROW((BoundedPareto{1.0, 10.0, 1.0}), std::invalid_argument);
  EXPECT_THROW((BoundedPareto{1.0, 10.0, 0.0}), std::invalid_argument);
}

// Heavier tails (smaller alpha) must produce larger means.
class ParetoAlphaSweep : public ::testing::TestWithParam<double> {};

TEST_P(ParetoAlphaSweep, MeanDecreasesWithAlpha) {
  const double alpha = GetParam();
  const BoundedPareto lighter{1.0, 1e6, alpha + 0.2};
  const BoundedPareto heavier{1.0, 1e6, alpha};
  EXPECT_GT(heavier.mean(), lighter.mean());
}

INSTANTIATE_TEST_SUITE_P(Alphas, ParetoAlphaSweep,
                         ::testing::Values(0.3, 0.6, 0.9, 1.2, 1.5, 2.0));

} // namespace
} // namespace spindown::workload
