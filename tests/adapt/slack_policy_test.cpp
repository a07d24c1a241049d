#include "adapt/slack.h"

#include <gtest/gtest.h>

#include "disk/params.h"

namespace spindown::adapt {
namespace {

const disk::DiskParams kParams = disk::DiskParams::st3500630as();
using Slack = SlackAwarePolicy; // for its constants

TEST(SlackAwarePolicy, StartsAtTheFloor) {
  SlackAwarePolicy policy{kParams};
  util::Rng rng{1};
  EXPECT_DOUBLE_EQ(policy.threshold(),
                   Slack::floor_factor * kParams.break_even_threshold());
  EXPECT_DOUBLE_EQ(*policy.idle_timeout(rng), policy.threshold());
}

TEST(SlackAwarePolicy, SloViolationsWidenToTheCeiling) {
  SlackAwarePolicy policy{kParams, /*target_response_s=*/10.0};
  for (int i = 0; i < 200; ++i) policy.observe_completion(25.0);
  EXPECT_DOUBLE_EQ(policy.threshold(),
                   Slack::max_factor * kParams.break_even_threshold());
}

TEST(SlackAwarePolicy, MeetingTheSloNarrowsBackToTheFloor) {
  SlackAwarePolicy policy{kParams, /*target_response_s=*/10.0};
  for (int i = 0; i < 200; ++i) policy.observe_completion(25.0);
  ASSERT_GT(policy.threshold(), kParams.break_even_threshold());
  for (int i = 0; i < 3000; ++i) policy.observe_completion(0.5);
  EXPECT_DOUBLE_EQ(policy.threshold(),
                   Slack::floor_factor * kParams.break_even_threshold());
}

TEST(SlackAwarePolicy, QuantileTrackerApproximatesTheTail) {
  static_assert(Slack::percentile == 99.0);
  SlackAwarePolicy policy{kParams};
  util::Rng rng{11};
  // 97% fast responses at ~0.5 s, 3% stalls at ~20 s: the p99 sits inside
  // the stall mode.
  for (int i = 0; i < 50000; ++i) {
    const double r = rng.uniform01() < 0.97 ? rng.uniform(0.2, 0.8)
                                            : rng.uniform(15.0, 25.0);
    policy.observe_completion(r);
  }
  EXPECT_GT(policy.estimated_percentile(), 5.0);
  EXPECT_LT(policy.estimated_percentile(), 30.0);
}

TEST(SlackAwarePolicy, ThresholdStaysInsideTheClamp) {
  SlackAwarePolicy policy{kParams, /*target_response_s=*/5.0};
  util::Rng rng{13};
  const double lo = Slack::floor_factor * kParams.break_even_threshold();
  const double hi = Slack::max_factor * kParams.break_even_threshold();
  for (int i = 0; i < 5000; ++i) {
    policy.observe_completion(rng.exponential(1.0 / 5.0));
    EXPECT_GE(policy.threshold(), lo - 1e-12);
    EXPECT_LE(policy.threshold(), hi + 1e-12);
  }
}

TEST(SlackAwarePolicy, RejectsBadConfig) {
  EXPECT_THROW((SlackAwarePolicy{kParams, 0.0}), std::invalid_argument);
}

} // namespace
} // namespace spindown::adapt
