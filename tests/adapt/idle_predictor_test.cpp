#include "adapt/idle_predictor.h"

#include <gtest/gtest.h>

#include "disk/params.h"

namespace spindown::adapt {
namespace {

const disk::DiskParams kParams = disk::DiskParams::st3500630as();
using Ewma = EwmaIdlePredictorPolicy; // for its constants

TEST(EwmaIdlePredictor, WarmupBehavesLikeBreakEven) {
  EwmaIdlePredictorPolicy policy{kParams};
  util::Rng rng{1};
  const double B = kParams.break_even_threshold();
  EXPECT_DOUBLE_EQ(*policy.idle_timeout(rng), B);
  policy.observe_idle(500.0, false);
  policy.observe_idle(500.0, false);
  // Still inside the warmup window (3 observations).
  EXPECT_DOUBLE_EQ(*policy.idle_timeout(rng), B);
}

TEST(EwmaIdlePredictor, ConfidentLongParksEarly) {
  EwmaIdlePredictorPolicy policy{kParams};
  util::Rng rng{1};
  for (int i = 0; i < 10; ++i) policy.observe_idle(500.0, false);
  // Constant long periods: deviation collapses, the band sits far above
  // break-even, and the policy parks after the token fraction.
  const double expected = Ewma::park_fraction * kParams.break_even_threshold();
  EXPECT_DOUBLE_EQ(*policy.idle_timeout(rng), expected);
  EXPECT_NEAR(policy.predicted_idle(), 500.0, 1e-6);
}

TEST(EwmaIdlePredictor, ShortPeriodsUseTheGuardThreshold) {
  EwmaIdlePredictorPolicy policy{kParams};
  util::Rng rng{1};
  for (int i = 0; i < 10; ++i) policy.observe_idle(5.0, false);
  const double expected = Ewma::guard_factor * kParams.break_even_threshold();
  EXPECT_DOUBLE_EQ(*policy.idle_timeout(rng), expected);
}

TEST(EwmaIdlePredictor, UncertainBandUsesTheGuardThreshold) {
  // Alternating short/long periods straddle break-even: the policy must not
  // park early on a coin flip.
  EwmaIdlePredictorPolicy policy{kParams};
  util::Rng rng{1};
  for (int i = 0; i < 40; ++i) {
    policy.observe_idle(i % 2 == 0 ? 5.0 : 150.0, false);
  }
  const double expected = Ewma::guard_factor * kParams.break_even_threshold();
  EXPECT_DOUBLE_EQ(*policy.idle_timeout(rng), expected);
}

TEST(EwmaIdlePredictor, OneSurpriseShortPeriodExitsTheParkRegime) {
  // The asymmetric (fast-down) gain: after a lull, a single burst-length
  // period must pull the policy out of early parking.
  EwmaIdlePredictorPolicy policy{kParams};
  util::Rng rng{1};
  for (int i = 0; i < 10; ++i) policy.observe_idle(400.0, false);
  const double park = Ewma::park_fraction * kParams.break_even_threshold();
  ASSERT_DOUBLE_EQ(*policy.idle_timeout(rng), park);
  policy.observe_idle(2.0, true);
  policy.observe_idle(2.0, false);
  // Within two short periods the band must straddle or drop below B.
  EXPECT_DOUBLE_EQ(*policy.idle_timeout(rng),
                   Ewma::guard_factor * kParams.break_even_threshold());
}

TEST(EwmaIdlePredictor, ConvergesToRegimeAfterChange) {
  EwmaIdlePredictorPolicy policy{kParams};
  util::Rng rng{1};
  for (int i = 0; i < 30; ++i) policy.observe_idle(4.0, false);
  // Regime change to long periods: engagement within a handful of periods.
  int flips = 0;
  for (int i = 0; i < 10; ++i) {
    policy.observe_idle(600.0, false);
    if (*policy.idle_timeout(rng) < kParams.break_even_threshold()) {
      flips = i + 1;
      break;
    }
  }
  EXPECT_GT(flips, 0) << "never engaged early parking";
  EXPECT_LE(flips, 8);
}

TEST(EwmaIdlePredictor, RejectsBadConfig) {
  EXPECT_THROW((EwmaIdlePredictorPolicy{kParams, 0.0}), std::invalid_argument);
}

} // namespace
} // namespace spindown::adapt
