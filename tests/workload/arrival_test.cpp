#include "workload/arrival.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "workload/distributions.h"
#include "workload/stream.h"

namespace spindown::workload {
namespace {

TEST(PoissonArrivals, InterArrivalMeanMatchesRate) {
  PoissonArrivals p{4.0};
  util::Rng rng{7};
  double prev = 0.0;
  double sum = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    const double t = p.next_arrival(rng);
    EXPECT_GT(t, prev);
    sum += t - prev;
    prev = t;
  }
  EXPECT_NEAR(sum / kN, 0.25, 0.005);
}

TEST(PoissonArrivals, CountInWindowIsPoisson) {
  // Mean and variance of the per-second counts should both be ~rate.
  PoissonArrivals p{6.0};
  util::Rng rng{11};
  std::vector<int> counts(2000, 0);
  double t = 0.0;
  while ((t = p.next_arrival(rng)) < 2000.0) {
    ++counts[static_cast<std::size_t>(t)];
  }
  double mean = 0.0;
  for (int c : counts) mean += c;
  mean /= static_cast<double>(counts.size());
  double var = 0.0;
  for (int c : counts) var += (c - mean) * (c - mean);
  var /= static_cast<double>(counts.size());
  EXPECT_NEAR(mean, 6.0, 0.25);
  EXPECT_NEAR(var, 6.0, 0.6);
}

TEST(PoissonArrivals, RejectsNonPositiveRate) {
  EXPECT_THROW(PoissonArrivals{0.0}, std::invalid_argument);
  EXPECT_THROW(PoissonArrivals{-1.0}, std::invalid_argument);
}

TEST(PoissonProcess, RejectsNonPositiveRate) {
  // Every Poisson family here refuses a rate that is nowhere positive: such
  // a process would never emit an arrival.
  EXPECT_THROW(PoissonArrivals{0.0}, std::invalid_argument);
  EXPECT_THROW((PiecewiseRateArrivals{{{0.0, 0.0}}}), std::invalid_argument);
  EXPECT_THROW((PiecewiseRateArrivals{{{0.0, 0.0}, {10.0, 0.0}}, 20.0}),
               std::invalid_argument);
  MmppParams silent;
  silent.rate = {0.0, 0.0};
  EXPECT_THROW(MmppArrivals{silent}, std::invalid_argument);
}

TEST(PiecewiseRateArrivals, ValidatesSegments) {
  EXPECT_THROW(PiecewiseRateArrivals{{}}, std::invalid_argument);
  EXPECT_THROW((PiecewiseRateArrivals{{{5.0, 1.0}}}), std::invalid_argument);
  EXPECT_THROW((PiecewiseRateArrivals{{{0.0, -1.0}}}), std::invalid_argument);
  EXPECT_THROW((PiecewiseRateArrivals{{{0.0, 1.0}, {1.0, 2.0}, {1.0, 3.0}}}),
               std::invalid_argument);
  // Trailing zero rate without a period would emit nothing ever again.
  EXPECT_THROW((PiecewiseRateArrivals{{{0.0, 1.0}, {10.0, 0.0}}}),
               std::invalid_argument);
  // ... but is fine with a period (the rate wraps back up).
  EXPECT_NO_THROW((PiecewiseRateArrivals{{{0.0, 1.0}, {10.0, 0.0}}, 20.0}));
  // Segment starts must fit inside the period.
  EXPECT_THROW((PiecewiseRateArrivals{{{0.0, 1.0}, {30.0, 2.0}}, 20.0}),
               std::invalid_argument);
}

TEST(PiecewiseRateArrivals, RateAtFollowsSegmentsAndWraps) {
  PiecewiseRateArrivals p{{{0.0, 4.0}, {100.0, 1.0}, {150.0, 0.5}}, 200.0};
  EXPECT_DOUBLE_EQ(p.rate_at(0.0), 4.0);
  EXPECT_DOUBLE_EQ(p.rate_at(99.9), 4.0);
  EXPECT_DOUBLE_EQ(p.rate_at(100.0), 1.0);
  EXPECT_DOUBLE_EQ(p.rate_at(175.0), 0.5);
  EXPECT_DOUBLE_EQ(p.rate_at(225.0), 4.0);  // wrapped
  EXPECT_DOUBLE_EQ(p.rate_at(399.0), 0.5);  // wrapped
  EXPECT_DOUBLE_EQ(p.peak_rate(), 4.0);
}

TEST(PiecewiseRateArrivals, ThinningReproducesSegmentRates) {
  // Two segments, no period: empirical counts per segment must match the
  // rate function (4-sigma tolerance).
  PiecewiseRateArrivals p{{{0.0, 50.0}, {100.0, 10.0}}};
  util::Rng rng{7};
  std::uint64_t first = 0, second = 0;
  for (;;) {
    const double t = p.next_arrival(rng);
    if (t >= 200.0) break;
    if (t < 100.0) {
      ++first;
    } else {
      ++second;
    }
  }
  EXPECT_NEAR(static_cast<double>(first), 5000.0, 4.0 * std::sqrt(5000.0));
  EXPECT_NEAR(static_cast<double>(second), 1000.0, 4.0 * std::sqrt(1000.0));
}

TEST(PiecewiseRateArrivals, PeriodicZeroSegmentIsSilent) {
  // Rate 20 in the first half of each cycle, 0 in the second: no arrival
  // may land in a silent half, and active halves carry the full rate.
  PiecewiseRateArrivals p{{{0.0, 20.0}, {100.0, 0.0}}, 200.0};
  util::Rng rng{9};
  std::uint64_t active = 0;
  for (;;) {
    const double t = p.next_arrival(rng);
    if (t >= 2000.0) break;
    EXPECT_LT(std::fmod(t, 200.0), 100.0);
    ++active;
  }
  // 10 cycles x 100 s x rate 20 = 20000 expected.
  EXPECT_NEAR(static_cast<double>(active), 20000.0, 4.0 * std::sqrt(20000.0));
}

TEST(PiecewiseRateArrivals, StrictlyIncreasingAndDeterministic) {
  PiecewiseRateArrivals a{{{0.0, 5.0}, {50.0, 1.0}}, 100.0};
  PiecewiseRateArrivals b{{{0.0, 5.0}, {50.0, 1.0}}, 100.0};
  util::Rng ra{21}, rb{21};
  double prev = 0.0;
  for (int i = 0; i < 2000; ++i) {
    const double t = a.next_arrival(ra);
    EXPECT_GT(t, prev);
    prev = t;
    EXPECT_DOUBLE_EQ(t, b.next_arrival(rb));
  }
}

TEST(MmppArrivals, ValidatesParams) {
  MmppParams zero;
  zero.rate = {0.0, 0.0};
  EXPECT_THROW(MmppArrivals{zero}, std::invalid_argument);
  MmppParams bad_dwell;
  bad_dwell.mean_dwell = {0.0, 10.0};
  EXPECT_THROW(MmppArrivals{bad_dwell}, std::invalid_argument);
}

TEST(MmppArrivals, LongRunRateMatchesDwellWeightedMixture) {
  MmppParams params;
  params.rate = {10.0, 1.0};
  params.mean_dwell = {100.0, 100.0};
  MmppArrivals p{params};
  util::Rng rng{5};
  const double horizon = 40000.0;
  std::uint64_t n = 0;
  while (p.next_arrival(rng) < horizon) ++n;
  const double expected = horizon * (10.0 + 1.0) / 2.0; // equal dwell shares
  // MMPP counts are over-dispersed vs. Poisson; allow a generous band.
  EXPECT_NEAR(static_cast<double>(n), expected, 0.05 * expected);
}

TEST(MmppArrivals, DwellTimesAverageToTheConfiguredMeans) {
  MmppParams params;
  params.rate = {30.0, 0.1};
  params.mean_dwell = {50.0, 150.0};
  MmppArrivals p{params};
  util::Rng rng{15};
  const double horizon = 100000.0;
  while (p.next_arrival(rng) < horizon) {
  }
  // Alternating visits: mean dwell over the run is (d0 + d1) / 2.
  const double mean_dwell =
      p.now() / static_cast<double>(std::max<std::uint64_t>(1, p.switches()));
  EXPECT_NEAR(mean_dwell, 100.0, 12.0);
  // Both states were actually visited, many times.
  EXPECT_GT(p.switches(), 500u);
}

TEST(MmppArrivals, SilentStateEmitsNothing) {
  // rate[1] = 0: every arrival must occur while the process is in state 0
  // (the state after next_arrival() returns is the state the arrival was
  // emitted in).  The long-run count halves vs. always-on; MMPP counts are
  // strongly over-dispersed (the ON-time share itself fluctuates), so the
  // band is a loose sanity check, not the structural assertion.
  MmppParams params;
  params.rate = {20.0, 0.0};
  params.mean_dwell = {50.0, 50.0};
  MmppArrivals p{params};
  util::Rng rng{17};
  std::uint64_t n = 0;
  while (p.next_arrival(rng) < 20000.0) {
    ASSERT_EQ(p.state(), 0);
    ++n;
  }
  EXPECT_NEAR(static_cast<double>(n), 200000.0, 0.25 * 200000.0);
}

TEST(ArrivalZipfStream, RejectsNullProcessAndEmptyCatalog) {
  std::vector<FileInfo> files(1);
  files[0].id = 0;
  files[0].size = 100;
  files[0].popularity = 1.0;
  const FileCatalog cat{files};
  EXPECT_THROW((ArrivalZipfStream{cat, nullptr, 10.0, util::Rng{1}}),
               std::invalid_argument);
  const FileCatalog empty{std::vector<FileInfo>{}};
  EXPECT_THROW((ArrivalZipfStream{empty, std::make_unique<PoissonArrivals>(1.0),
                                  10.0, util::Rng{1}}),
               std::invalid_argument);
}

} // namespace
} // namespace spindown::workload
