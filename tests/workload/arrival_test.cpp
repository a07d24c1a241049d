#include "workload/arrival.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
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

/// Rate functions for the cursor checks: a day of 86 400 s, a
/// non-integer period whose segment starts are not whole numbers, no
/// period, and random periods and starts.  Where neither the period's
/// multiples nor the starts are round numbers, a segment's end in absolute
/// time rounds up past the true end at some periods.
std::vector<PiecewiseRateArrivals> cursor_cases() {
  std::vector<PiecewiseRateArrivals> out{
      PiecewiseRateArrivals{{{0.0, 6.0}, {9000.0, 0.16}}, 86400.0},
      PiecewiseRateArrivals{{{0.0, 6.0}, {0.1, 0.5}, {3000.3, 0.0},
                             {4500.25, 2.0}, {9000.4, 1.0}},
                            9000.5},
      PiecewiseRateArrivals{{{0.0, 6.0}, {0.1, 0.5}, {3000.3, 2.0}}},
  };
  util::Rng rng{41};
  for (int c = 0; c < 40; ++c) {
    const double period = 1.0 + rng.uniform01() * 1e5;
    std::vector<double> starts{0.0};
    for (std::uint64_t k = rng.uniform_int(1, 4); k > 0; --k) {
      starts.push_back(rng.uniform01() * period);
    }
    std::sort(starts.begin(), starts.end());
    starts.erase(std::unique(starts.begin(), starts.end()), starts.end());
    // Distinct rates, so a segment mix-up shows.
    std::vector<RateSegment> segments;
    for (std::size_t i = 0; i < starts.size(); ++i) {
      segments.push_back({starts[i], 1.0 + static_cast<double>(i)});
    }
    out.emplace_back(segments, period);
  }
  return out;
}

/// Feeds `times`, sorted, to a fresh copy's rate_forward and compares each
/// answer with rate_at.
void expect_cursor_matches(const PiecewiseRateArrivals& proto,
                           std::vector<double> times) {
  std::sort(times.begin(), times.end());
  PiecewiseRateArrivals p = proto;
  for (const double t : times) {
    ASSERT_EQ(p.rate_forward(t), proto.rate_at(t))
        << "t=" << t << " period=" << proto.period();
  }
}

TEST(PiecewiseRateArrivals, RateForwardMatchesRateAtAtRandomTimes) {
  for (const auto& proto : cursor_cases()) {
    const double span = proto.period() > 0.0 ? proto.period() : 10'000.0;
    util::Rng rng{17};
    std::vector<double> times;
    // Dense and sparse steps, and times far out where doubles are coarse.
    for (int i = 0; i < 20'000; ++i) {
      times.push_back(rng.uniform01() * 40.0 * span);
    }
    for (int i = 0; i < 2'000; ++i) {
      times.push_back(rng.uniform01() * 1e6 * span);
    }
    expect_cursor_matches(proto, times);
  }
}

TEST(PiecewiseRateArrivals, RateForwardMatchesRateAtAtEveryEdge) {
  // Every segment start and period end of many periods, and the doubles
  // one and two steps either side of it.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const auto& proto : cursor_cases()) {
    const double period = proto.period();
    std::vector<double> edges;
    for (const auto& s : proto.segments()) edges.push_back(s.start);
    if (period > 0.0) edges.push_back(period);
    std::vector<double> times;
    std::vector<double> multiples{0.0, 1.0, 2.0, 3.0, 17.0, 365.0, 1e5, 3e7};
    for (int k = 4; k < 200; ++k) multiples.push_back(k);
    for (const double k : multiples) {
      if (period == 0.0 && k > 0.0) break;
      for (const double e : edges) {
        const double at = k * period + e;
        double below = at, above = at;
        times.push_back(at);
        for (int step = 0; step < 2; ++step) {
          below = std::nextafter(below, -kInf);
          above = std::nextafter(above, kInf);
          if (below >= 0.0) times.push_back(below);
          times.push_back(above);
        }
      }
    }
    expect_cursor_matches(proto, times);
  }
}

TEST(PiecewiseRateArrivals, ThinningDrawsAsWithRateAt) {
  // next_arrival reads rates through the cursor; the thinning loop written
  // with rate_at gives the same arrivals from the same draws.
  for (const auto& proto : cursor_cases()) {
    PiecewiseRateArrivals p = proto;
    util::Rng rng{31}, ref_rng{31};
    double now = 0.0;
    for (int i = 0; i < 20'000; ++i) {
      for (;;) {
        now += ref_rng.exponential(proto.peak_rate());
        const double r = proto.rate_at(now);
        if (r >= proto.peak_rate() ||
            ref_rng.uniform01() * proto.peak_rate() < r) {
          break;
        }
      }
      ASSERT_EQ(p.next_arrival(rng), now) << "arrival " << i;
    }
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
