#include "util/math.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace spindown::util {
namespace {

TEST(GeneralizedHarmonic, KnownValues) {
  // H_1^a = 1 for any a.
  EXPECT_DOUBLE_EQ(generalized_harmonic(1, 0.5), 1.0);
  // H_3^1 = 1 + 1/2 + 1/3.
  EXPECT_NEAR(generalized_harmonic(3, 1.0), 1.0 + 0.5 + 1.0 / 3.0, 1e-12);
  // a = 0: every term is 1.
  EXPECT_DOUBLE_EQ(generalized_harmonic(5, 0.0), 5.0);
}

TEST(GeneralizedHarmonic, MonotoneInN) {
  double prev = 0.0;
  for (std::size_t n = 1; n <= 100; n *= 10) {
    const double h = generalized_harmonic(n, 0.44);
    EXPECT_GT(h, prev);
    prev = h;
  }
}

TEST(PaperZipfTheta, MatchesPublishedConstant) {
  // theta = log 0.6 / log 0.4 ~= 0.5575.
  EXPECT_NEAR(paper_zipf_theta(), std::log(0.6) / std::log(0.4), 1e-15);
  EXPECT_NEAR(paper_zipf_theta(), 0.5575, 0.001);
  // The paper's popularity exponent 1 - theta ~= 0.4425.
  EXPECT_NEAR(1.0 - paper_zipf_theta(), 0.4425, 0.001);
}

TEST(LinearFit, ExactLine) {
  const std::vector<double> x{0, 1, 2, 3, 4};
  const std::vector<double> y{1, 3, 5, 7, 9}; // y = 2x + 1
  const auto fit = linear_fit(x, y);
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
  EXPECT_NEAR(fit.r2, 1.0, 1e-12);
}

TEST(LinearFit, NoisyLineStillCloseAndR2Reasonable) {
  std::vector<double> x, y;
  for (int i = 0; i < 100; ++i) {
    x.push_back(i);
    y.push_back(3.0 * i + 2.0 + ((i % 2 == 0) ? 0.5 : -0.5));
  }
  const auto fit = linear_fit(x, y);
  EXPECT_NEAR(fit.slope, 3.0, 0.01);
  EXPECT_GT(fit.r2, 0.999);
}

TEST(LinearFit, DegenerateVerticalDataHasZeroSlope) {
  const std::vector<double> x{2, 2, 2};
  const std::vector<double> y{1, 2, 3};
  const auto fit = linear_fit(x, y);
  EXPECT_DOUBLE_EQ(fit.slope, 0.0);
  EXPECT_DOUBLE_EQ(fit.intercept, 2.0);
}

TEST(LogLogFit, PowerLawRecovered) {
  // y = 5 * x^(-1.3): slope in log-log space is -1.3.
  std::vector<double> x, y;
  for (int i = 1; i <= 50; ++i) {
    x.push_back(i);
    y.push_back(5.0 * std::pow(i, -1.3));
  }
  const auto fit = log_log_fit(x, y);
  EXPECT_NEAR(fit.slope, -1.3, 1e-9);
  EXPECT_NEAR(fit.r2, 1.0, 1e-9);
}

TEST(LogLogFit, SkipsNonPositivePoints) {
  const std::vector<double> x{0.0, 1.0, 10.0, 100.0};
  const std::vector<double> y{5.0, 1.0, 0.1, 0.01};
  const auto fit = log_log_fit(x, y); // first point unusable
  EXPECT_NEAR(fit.slope, -1.0, 1e-9);
}

TEST(Mean, Basics) {
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{}), 0.0);
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{4.0}), 4.0);
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{1.0, 2.0, 3.0}), 2.0);
}

} // namespace
} // namespace spindown::util
