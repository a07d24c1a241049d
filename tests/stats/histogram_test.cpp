#include "stats/histogram.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

namespace spindown::stats {
namespace {

TEST(LinearHistogram, BinPlacement) {
  LinearHistogram h{0.0, 10.0, 10};
  h.add(0.5);
  h.add(9.99);
  h.add(5.0);
  EXPECT_EQ(h.bin_count(0), 1u);
  EXPECT_EQ(h.bin_count(9), 1u);
  EXPECT_EQ(h.bin_count(5), 1u);
  EXPECT_EQ(h.total(), 3u);
}

TEST(LinearHistogram, UnderOverflow) {
  LinearHistogram h{0.0, 10.0, 5};
  h.add(-1.0);
  h.add(10.0); // hi is exclusive
  h.add(100.0);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_EQ(h.total(), 3u);
}

TEST(LinearHistogram, WeightedAdd) {
  LinearHistogram h{0.0, 10.0, 10};
  h.add(5.0, 7);
  EXPECT_EQ(h.bin_count(5), 7u);
  EXPECT_EQ(h.total(), 7u);
}

TEST(LinearHistogram, BinEdges) {
  LinearHistogram h{0.0, 10.0, 10};
  EXPECT_DOUBLE_EQ(h.bin_lo(3), 3.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(3), 4.0);
}

TEST(LinearHistogram, PercentileUniformData) {
  LinearHistogram h{0.0, 100.0, 1000};
  for (int i = 0; i < 100; ++i) h.add(i + 0.5);
  EXPECT_NEAR(h.percentile(50.0), 50.0, 1.0);
  EXPECT_NEAR(h.percentile(95.0), 95.0, 1.5);
  EXPECT_NEAR(h.percentile(5.0), 5.0, 1.5);
}

TEST(LinearHistogram, PercentileEdgeCases) {
  LinearHistogram h{0.0, 10.0, 10};
  EXPECT_DOUBLE_EQ(h.percentile(50.0), 0.0); // empty -> lo
  h.add(5.5);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(100.0), 10.0);
  const double p50 = h.percentile(50.0);
  EXPECT_GE(p50, 5.0);
  EXPECT_LE(p50, 6.0);
}

TEST(LinearHistogram, MergeIsExactBinwise) {
  LinearHistogram a{0.0, 10.0, 5};
  LinearHistogram b{0.0, 10.0, 5};
  a.add(-1.0);   // underflow
  a.add(2.5);    // bin 1
  b.add(2.7, 3); // bin 1
  b.add(100.0);  // overflow
  a.merge(b);
  EXPECT_EQ(a.bin_count(1), 4u);
  EXPECT_EQ(a.underflow(), 1u);
  EXPECT_EQ(a.overflow(), 1u);
  EXPECT_EQ(a.total(), 6u);
}

TEST(LinearHistogram, MergeOrderIndependent) {
  // Integer adds commute: parts merged in either order equal the histogram
  // built from the union — the property sharded aggregation relies on.
  LinearHistogram union_h{0.0, 100.0, 50};
  LinearHistogram ab{0.0, 100.0, 50}, ba{0.0, 100.0, 50};
  LinearHistogram a{0.0, 100.0, 50}, b{0.0, 100.0, 50};
  for (int i = 0; i < 200; ++i) {
    const double x = 0.7 * i - 20.0; // spans under/in/overflow
    union_h.add(x);
    (i % 2 ? a : b).add(x);
  }
  ab.merge(a);
  ab.merge(b);
  ba.merge(b);
  ba.merge(a);
  for (std::size_t i = 0; i < union_h.bins(); ++i) {
    EXPECT_EQ(ab.bin_count(i), union_h.bin_count(i));
    EXPECT_EQ(ba.bin_count(i), union_h.bin_count(i));
  }
  EXPECT_EQ(ab.underflow(), union_h.underflow());
  EXPECT_EQ(ab.overflow(), union_h.overflow());
  EXPECT_EQ(ab.total(), union_h.total());
  EXPECT_EQ(ba.total(), union_h.total());
}

TEST(LinearHistogram, MergeRejectsGeometryMismatch) {
  LinearHistogram a{0.0, 10.0, 5};
  const LinearHistogram wrong_bins{0.0, 10.0, 6};
  const LinearHistogram wrong_hi{0.0, 20.0, 5};
  const LinearHistogram wrong_lo{1.0, 10.0, 5};
  EXPECT_THROW(a.merge(wrong_bins), std::invalid_argument);
  EXPECT_THROW(a.merge(wrong_hi), std::invalid_argument);
  EXPECT_THROW(a.merge(wrong_lo), std::invalid_argument);
}

TEST(LogHistogram, GeometricBinning) {
  LogHistogram h{1.0, 1000.0, 3}; // bins: [1,10), [10,100), [100,1000)
  h.add(2.0);
  h.add(20.0);
  h.add(200.0);
  EXPECT_EQ(h.bin_count(0), 1u);
  EXPECT_EQ(h.bin_count(1), 1u);
  EXPECT_EQ(h.bin_count(2), 1u);
  EXPECT_NEAR(h.bin_lo(1), 10.0, 1e-9);
  EXPECT_NEAR(h.bin_hi(1), 100.0, 1e-9);
  EXPECT_NEAR(h.bin_mid(1), std::sqrt(10.0 * 100.0), 1e-9);
}

TEST(LogHistogram, ClampsOutOfRangeIntoEdgeBins) {
  LogHistogram h{1.0, 100.0, 2};
  h.add(0.5);    // below lo -> first bin
  h.add(1000.0); // above hi -> last bin
  EXPECT_EQ(h.bin_count(0), 1u);
  EXPECT_EQ(h.bin_count(1), 1u);
}

TEST(LogHistogram, NonPositiveDroppedButCounted) {
  LogHistogram h{1.0, 100.0, 2};
  h.add(0.0);
  h.add(-5.0);
  EXPECT_EQ(h.total(), 2u);
  EXPECT_EQ(h.bin_count(0), 0u);
  EXPECT_EQ(h.bin_count(1), 0u);
}

TEST(LogHistogram, MergeIsExactBinwise) {
  LogHistogram a{1.0, 1000.0, 3};
  LogHistogram b{1.0, 1000.0, 3};
  a.add(2.0);
  a.add(0.0); // non-positive: counted in total, binned nowhere
  b.add(20.0, 5);
  b.add(200.0);
  a.merge(b);
  EXPECT_EQ(a.bin_count(0), 1u);
  EXPECT_EQ(a.bin_count(1), 5u);
  EXPECT_EQ(a.bin_count(2), 1u);
  EXPECT_EQ(a.total(), 8u);
}

TEST(LogHistogram, MergeRejectsGeometryMismatch) {
  LogHistogram a{1.0, 1000.0, 3};
  const LogHistogram wrong_bins{1.0, 1000.0, 4};
  const LogHistogram wrong_range{1.0, 100.0, 3};
  EXPECT_THROW(a.merge(wrong_bins), std::invalid_argument);
  EXPECT_THROW(a.merge(wrong_range), std::invalid_argument);
}

TEST(LogHistogram, PowerLawIsLogLogLinear) {
  // Zipf-like mass over sizes: proportions in log-log space should fall on
  // a line — this is the §5.1 check our TraceStats relies on.
  LogHistogram h{1.0, 1e6, 30};
  for (std::size_t i = 0; i < 30; ++i) {
    const double mid = h.bin_mid(i);
    h.add(mid, static_cast<std::uint64_t>(1e9 * std::pow(mid, -0.9)));
  }
  // Ratio of consecutive log-bin counts should be roughly constant.
  double prev_ratio = 0.0;
  for (std::size_t i = 1; i + 1 < 30; ++i) {
    const double r = static_cast<double>(h.bin_count(i + 1)) /
                     static_cast<double>(h.bin_count(i));
    if (prev_ratio != 0.0) {
      EXPECT_NEAR(r, prev_ratio, 0.02);
    }
    prev_ratio = r;
  }
}

} // namespace
} // namespace spindown::stats
