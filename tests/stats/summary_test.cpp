#include "stats/summary.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "util/rng.h"

namespace spindown::stats {
namespace {

TEST(ResponseSummary, Empty) {
  ResponseSummary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(ResponseSummary, BasicMoments) {
  ResponseSummary s;
  for (double x : {1.0, 2.0, 3.0, 4.0, 5.0}) s.add(x);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(ResponseSummary, PercentilesOnUniformData) {
  ResponseSummary s;
  util::Rng rng{3};
  for (int i = 0; i < 100000; ++i) s.add(rng.uniform(0.0, 100.0));
  EXPECT_NEAR(s.p50(), 50.0, 1.0);
  EXPECT_NEAR(s.p95(), 95.0, 1.0);
  EXPECT_NEAR(s.p99(), 99.0, 1.0);
}

TEST(ResponseSummary, MergeApproximatesUnion) {
  ResponseSummary a, b;
  util::Rng rng{4};
  for (int i = 0; i < 20000; ++i) a.add(rng.uniform(0.0, 10.0));
  for (int i = 0; i < 20000; ++i) b.add(rng.uniform(10.0, 20.0));
  a.merge(b);
  EXPECT_EQ(a.count(), 40000u);
  EXPECT_NEAR(a.mean(), 10.0, 0.2);
  EXPECT_NEAR(a.p50(), 10.0, 0.5);
}

TEST(ResponseSummary, MergeIsExactOnHistogram) {
  // Regression vs the old midpoint re-binning merge: every cell of the
  // merged histogram — including overflow past kHistHi — must carry over
  // exactly, so percentiles after a merge equal percentiles of the union.
  ResponseSummary a, b, whole;
  util::Rng rng{9};
  for (int i = 0; i < 5000; ++i) {
    const double x = rng.uniform(0.0, 30.0);
    (i % 2 ? a : b).add(x);
    whole.add(x);
  }
  b.add(5000.0); // overflow sample (> kHistHi)
  whole.add(5000.0);
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_DOUBLE_EQ(a.p50(), whole.p50());
  EXPECT_DOUBLE_EQ(a.p95(), whole.p95());
  EXPECT_DOUBLE_EQ(a.p99(), whole.p99());
  EXPECT_EQ(a.histogram().overflow(), whole.histogram().overflow());
  EXPECT_DOUBLE_EQ(a.max(), whole.max());
  EXPECT_DOUBLE_EQ(a.min(), whole.min());
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-12);
}

TEST(ResponseSummary, FromPartsRebuildsExactly) {
  // The sharded run's canonical aggregation: per-disk Welford accumulators
  // folded in disk-id order + one shared histogram reproduce the summary
  // the sequential path builds, field for field.
  Welford moments;
  LinearHistogram hist{ResponseSummary::kHistLo, ResponseSummary::kHistHi,
                       ResponseSummary::kHistBins};
  ResponseSummary direct;
  util::Rng rng{11};
  for (int i = 0; i < 3000; ++i) {
    const double x = rng.uniform(0.0, 500.0);
    moments.add(x);
    hist.add(x);
    direct.add(x);
  }
  const ResponseSummary rebuilt = ResponseSummary::from_parts(moments, hist);
  EXPECT_EQ(rebuilt.count(), direct.count());
  EXPECT_DOUBLE_EQ(rebuilt.mean(), direct.mean());
  EXPECT_DOUBLE_EQ(rebuilt.stddev(), direct.stddev());
  EXPECT_DOUBLE_EQ(rebuilt.min(), direct.min());
  EXPECT_DOUBLE_EQ(rebuilt.max(), direct.max());
  EXPECT_DOUBLE_EQ(rebuilt.p50(), direct.p50());
  EXPECT_DOUBLE_EQ(rebuilt.p99(), direct.p99());
}

TEST(ResponseSummary, FromPartsValidatesParts) {
  Welford moments;
  moments.add(1.0);
  LinearHistogram wrong_geometry{0.0, 10.0, 10};
  wrong_geometry.add(1.0);
  EXPECT_THROW(ResponseSummary::from_parts(moments, wrong_geometry),
               std::invalid_argument);
  LinearHistogram empty{ResponseSummary::kHistLo, ResponseSummary::kHistHi,
                        ResponseSummary::kHistBins};
  // Count mismatch between moments and histogram means a sample was lost.
  EXPECT_THROW(ResponseSummary::from_parts(moments, empty),
               std::invalid_argument);
}

TEST(ResponseSummary, SubSecondResolution) {
  ResponseSummary s;
  for (int i = 0; i < 1000; ++i) s.add(0.05);
  EXPECT_NEAR(s.p50(), 0.05, 0.1); // within one 0.1 s bin
}

} // namespace
} // namespace spindown::stats
