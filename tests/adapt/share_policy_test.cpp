#include "adapt/share.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "disk/params.h"

namespace spindown::adapt {
namespace {

const disk::DiskParams kParams = disk::DiskParams::st3500630as();
using Share = ShareThresholdPolicy; // for its constants

double weight_sum(const ShareThresholdPolicy& p) {
  return std::accumulate(p.weights().begin(), p.weights().end(), 0.0);
}

TEST(CounterfactualCost, ShortPeriodIsPureIdleDraw) {
  EXPECT_DOUBLE_EQ(counterfactual_idle_cost(kParams, 30.0, 20.0, 25.0),
                   20.0 * kParams.idle_w);
}

TEST(CounterfactualCost, LongPeriodPaysTransitionStandbyAndDelay) {
  const double T = 10.0, d = 200.0, penalty = 25.0;
  const double expected = kParams.idle_w * T + kParams.transition_energy() +
                          kParams.standby_w *
                              (d - T - kParams.spindown_s - kParams.spinup_s) +
                          penalty * kParams.spinup_s;
  EXPECT_DOUBLE_EQ(counterfactual_idle_cost(kParams, T, d, penalty), expected);
}

TEST(CounterfactualCost, MidRetractionArrivalPaysTheRemainder) {
  // d lands between T and T + spindown: the arrival waits out the rest of
  // the retraction plus the full spin-up.
  const double T = 50.0, d = 55.0, penalty = 25.0;
  const double retraction_left = T + kParams.spindown_s - d; // 5 s
  const double expected = kParams.idle_w * T + kParams.transition_energy() +
                          penalty * (retraction_left + kParams.spinup_s);
  EXPECT_DOUBLE_EQ(counterfactual_idle_cost(kParams, T, d, penalty), expected);
}

TEST(ShareThresholdPolicy, StartsUniformWithExpectedGrid) {
  ShareThresholdPolicy policy{kParams};
  ASSERT_EQ(policy.thresholds().size(), Share::default_experts);
  EXPECT_DOUBLE_EQ(policy.thresholds().front(), 0.0);
  const double B = kParams.break_even_threshold();
  EXPECT_NEAR(policy.thresholds()[1], B / 8.0, 1e-9);
  EXPECT_NEAR(policy.thresholds().back(), Share::max_factor * B, 1e-9);
  EXPECT_TRUE(std::is_sorted(policy.thresholds().begin(),
                             policy.thresholds().end()));
  for (const double w : policy.weights()) {
    EXPECT_DOUBLE_EQ(w, 1.0 / static_cast<double>(Share::default_experts));
  }
}

TEST(ShareThresholdPolicy, WeightsStayNormalised) {
  ShareThresholdPolicy policy{kParams};
  util::Rng rng{3};
  for (int i = 0; i < 500; ++i) {
    policy.observe_idle(rng.exponential(1.0 / 40.0), false);
    EXPECT_NEAR(weight_sum(policy), 1.0, 1e-9);
  }
}

TEST(ShareThresholdPolicy, ShortPeriodsPushTheThresholdUp) {
  // Periods of ~8 s: every small threshold pays a park + delay on a large
  // fraction of them, so the combiner must drift toward the big end.
  ShareThresholdPolicy policy{kParams};
  const double start = policy.current_threshold();
  util::Rng rng{5};
  for (int i = 0; i < 300; ++i) {
    policy.observe_idle(rng.exponential(1.0 / 8.0), false);
  }
  EXPECT_GT(policy.current_threshold(), start);
  EXPECT_GT(policy.current_threshold(), kParams.break_even_threshold());
}

TEST(ShareThresholdPolicy, LongPeriodsPullTheThresholdDown) {
  ShareThresholdPolicy policy{kParams};
  util::Rng rng{7};
  for (int i = 0; i < 300; ++i) {
    policy.observe_idle(500.0 + rng.uniform(0.0, 100.0), false);
  }
  // Long periods reward early parking: the combiner must sit well below
  // break-even.
  EXPECT_LT(policy.current_threshold(),
            0.5 * kParams.break_even_threshold());
}

TEST(ShareThresholdPolicy, FixedShareFloorEnablesRecovery) {
  ShareThresholdPolicy policy{kParams};
  for (int i = 0; i < 500; ++i) policy.observe_idle(600.0, false);
  const double low = policy.current_threshold();
  ASSERT_LT(low, 0.5 * kParams.break_even_threshold());
  // Regime change: 30 s periods punish every expert below 30 s (their
  // parks are all unprofitable); the share floor guarantees the spared
  // experts recover within a bounded number of rounds despite 500 rounds
  // of collapsed weights.
  for (int i = 0; i < 60; ++i) policy.observe_idle(30.0, false);
  EXPECT_GT(policy.current_threshold(), low);
  EXPECT_GT(policy.current_threshold(), 0.6 * kParams.break_even_threshold());
  // No weight ever collapses below the mixing floor.
  const double floor =
      Share::share / static_cast<double>(Share::default_experts);
  for (const double w : policy.weights()) EXPECT_GE(w, floor - 1e-12);
}

TEST(ShareThresholdPolicy, BestExpertGetsTheMostWeight) {
  // Deterministic periods of 300 s: the counterfactually cheapest expert is
  // the smallest threshold > 0... in fact T = 0 (no idle ramp at all, and
  // the delay penalty is paid by every expert whose threshold < 300).
  ShareThresholdPolicy policy{kParams};
  for (int i = 0; i < 400; ++i) policy.observe_idle(300.0, false);
  const auto& w = policy.weights();
  const std::size_t argmax = static_cast<std::size_t>(
      std::max_element(w.begin(), w.end()) - w.begin());
  double best_cost = 1e300;
  std::size_t expected = 0;
  for (std::size_t i = 0; i < policy.thresholds().size(); ++i) {
    const double c =
        counterfactual_idle_cost(kParams, policy.thresholds()[i], 300.0,
                                 Share::delay_penalty_w);
    if (c < best_cost) {
      best_cost = c;
      expected = i;
    }
  }
  EXPECT_EQ(argmax, expected);
}

TEST(ShareThresholdPolicy, RejectsBadConfig) {
  EXPECT_THROW((ShareThresholdPolicy{kParams, 1}), std::invalid_argument);
}

} // namespace
} // namespace spindown::adapt
