#include "disk/spin_policy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "sys/system.h"

namespace spindown::disk {
namespace {

TEST(FixedThresholdPolicy, ReturnsConstant) {
  FixedThresholdPolicy policy{30.0};
  util::Rng rng{1};
  for (int i = 0; i < 10; ++i) {
    const auto t = policy.idle_timeout(rng);
    ASSERT_TRUE(t.has_value());
    EXPECT_DOUBLE_EQ(*t, 30.0);
  }
  EXPECT_DOUBLE_EQ(policy.threshold(), 30.0);
}

TEST(FixedThresholdPolicy, RejectsNegative) {
  EXPECT_THROW(FixedThresholdPolicy{-1.0}, std::invalid_argument);
}

TEST(FixedThresholdPolicy, ZeroMeansImmediate) {
  FixedThresholdPolicy policy{0.0};
  util::Rng rng{1};
  EXPECT_DOUBLE_EQ(*policy.idle_timeout(rng), 0.0);
}

TEST(NeverSpinDownPolicy, ReturnsNullopt) {
  NeverSpinDownPolicy policy;
  util::Rng rng{1};
  EXPECT_FALSE(policy.idle_timeout(rng).has_value());
}

TEST(BreakEvenPolicy, UsesTable2Threshold) {
  const auto p = DiskParams::st3500630as();
  const auto policy = sys::PolicySpec::break_even().make(p);
  util::Rng rng{1};
  EXPECT_NEAR(*policy->idle_timeout(rng), 53.3, 0.05);
}

TEST(RandomizedCompetitivePolicy, SamplesWithinBreakEven) {
  const auto p = DiskParams::st3500630as();
  RandomizedCompetitivePolicy policy{p};
  util::Rng rng{7};
  const double B = p.break_even_threshold();
  for (int i = 0; i < 5000; ++i) {
    const auto t = policy.idle_timeout(rng);
    ASSERT_TRUE(t.has_value());
    EXPECT_GE(*t, 0.0);
    EXPECT_LE(*t, B + 1e-9);
  }
}

TEST(RandomizedCompetitivePolicy, DensityMatchesTheory) {
  // F(t) = (e^(t/B) - 1)/(e - 1); check the empirical CDF at B/2.
  const auto p = DiskParams::st3500630as();
  RandomizedCompetitivePolicy policy{p};
  util::Rng rng{11};
  const double B = p.break_even_threshold();
  int below = 0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) {
    if (*policy.idle_timeout(rng) <= B / 2.0) ++below;
  }
  const double expected = (std::exp(0.5) - 1.0) / (M_E - 1.0);
  EXPECT_NEAR(static_cast<double>(below) / kN, expected, 0.005);
}

TEST(RandomizedCompetitivePolicy, KolmogorovSmirnovAgainstTheory) {
  // Full-distribution test: the empirical CDF of sampled thresholds must
  // match F(t) = (e^(t/B) - 1)/(e - 1) on [0, B] everywhere, not just at
  // one probe point.  The KS critical value at alpha = 0.001 is
  // 1.95/sqrt(n); a genuine distribution mismatch (say, uniform sampling)
  // scores an order of magnitude above it.
  const auto p = DiskParams::st3500630as();
  RandomizedCompetitivePolicy policy{p};
  util::Rng rng{23};
  const double B = p.break_even_threshold();
  constexpr std::size_t kN = 20000;
  std::vector<double> samples;
  samples.reserve(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    samples.push_back(*policy.idle_timeout(rng));
  }
  std::sort(samples.begin(), samples.end());
  double ks = 0.0;
  for (std::size_t i = 0; i < kN; ++i) {
    const double f = (std::exp(samples[i] / B) - 1.0) / (M_E - 1.0);
    const double lo = static_cast<double>(i) / kN;
    const double hi = static_cast<double>(i + 1) / kN;
    ks = std::max({ks, std::abs(f - lo), std::abs(f - hi)});
  }
  EXPECT_LT(ks, 1.95 / std::sqrt(static_cast<double>(kN)));
}

TEST(RandomizedCompetitivePolicy, MeanMatchesClosedForm) {
  // E[T] = int_0^B t e^(t/B) / (B(e-1)) dt = B / (e - 1).
  const auto p = DiskParams::st3500630as();
  RandomizedCompetitivePolicy policy{p};
  util::Rng rng{29};
  const double B = p.break_even_threshold();
  constexpr int kN = 200000;
  double sum = 0.0;
  for (int i = 0; i < kN; ++i) sum += *policy.idle_timeout(rng);
  const double expected = B / (M_E - 1.0);
  // Standard error: sd < B/4, so 4 sigma is well under 1% of the mean.
  EXPECT_NEAR(sum / kN, expected, 4.0 * (B / 4.0) / std::sqrt(kN));
}

TEST(OfflineOptimal, ShortGapStaysIdle) {
  const auto p = DiskParams::st3500630as();
  const std::vector<double> gaps{10.0}; // shorter than the round trip
  EXPECT_DOUBLE_EQ(offline_optimal_idle_energy(p, gaps), 10.0 * p.idle_w);
}

TEST(OfflineOptimal, LongGapGoesToStandby) {
  const auto p = DiskParams::st3500630as();
  const double gap = 10'000.0;
  const std::vector<double> gaps{gap};
  const double expected = p.transition_energy() +
                          p.standby_w * (gap - p.spindown_s - p.spinup_s);
  EXPECT_DOUBLE_EQ(offline_optimal_idle_energy(p, gaps), expected);
}

TEST(OfflineOptimal, BreakEvenBoundaryPicksCheaper) {
  const auto p = DiskParams::st3500630as();
  // Slightly above the round trip but below profitability: stay idle.
  const std::vector<double> gaps{p.spindown_s + p.spinup_s + 1.0};
  EXPECT_DOUBLE_EQ(offline_optimal_idle_energy(p, gaps),
                   (p.spindown_s + p.spinup_s + 1.0) * p.idle_w);
}

TEST(OfflineOptimal, NeverExceedsAlwaysIdlePolicy) {
  const auto p = DiskParams::st3500630as();
  util::Rng rng{13};
  std::vector<double> gaps;
  double idle_energy = 0.0;
  for (int i = 0; i < 1000; ++i) {
    gaps.push_back(rng.uniform(0.0, 300.0));
    idle_energy += gaps.back() * p.idle_w;
  }
  EXPECT_LE(offline_optimal_idle_energy(p, gaps), idle_energy);
}

TEST(OfflineOptimal, IsLowerBoundForFixedThresholdPolicy) {
  // For any gap sequence and any threshold T, the online fixed-threshold
  // cost must be >= the offline optimum.  (2-competitiveness sanity.)
  const auto p = DiskParams::st3500630as();
  util::Rng rng{17};
  std::vector<double> gaps;
  for (int i = 0; i < 2000; ++i) gaps.push_back(rng.exponential(1.0 / 60.0));
  const double opt = offline_optimal_idle_energy(p, gaps);
  for (const double T : {0.0, 10.0, 53.3, 120.0}) {
    double online = 0.0;
    for (const double g : gaps) {
      if (g <= T) {
        online += g * p.idle_w;
      } else {
        // Idle for T, then pay the transition; standby for the remainder if
        // the gap outlasts the round trip.
        online += T * p.idle_w + p.transition_energy();
        const double rest = g - T - p.spindown_s - p.spinup_s;
        if (rest > 0.0) online += rest * p.standby_w;
      }
    }
    EXPECT_GE(online, opt - 1e-6) << "threshold " << T;
  }
}

} // namespace
} // namespace spindown::disk
