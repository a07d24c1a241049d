#include "util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>
#include <vector>

namespace spindown::util {
namespace {

TEST(Rng, DeterministicGivenSeed) {
  Rng a{42}, b{42};
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a{1}, b{2};
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, Uniform01InRange) {
  Rng rng{7};
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, Uniform01MeanNearHalf) {
  Rng rng{7};
  double sum = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) sum += rng.uniform01();
  EXPECT_NEAR(sum / kN, 0.5, 0.01);
}

TEST(Rng, UniformIntCoversRangeUniformly) {
  Rng rng{11};
  std::array<int, 10> counts{};
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    const auto v = rng.uniform_int(0, 9);
    ASSERT_LE(v, 9u);
    ++counts[v];
  }
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / kN, 0.1, 0.01);
  }
}

TEST(Rng, UniformIntSingleton) {
  Rng rng{3};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.uniform_int(5, 5), 5u);
  }
}

/// uniform_int as first written: the rejection limit computed on every
/// call.  Counts the draws it rejects.
std::uint64_t reference_uniform_int(Rng& rng, std::uint64_t lo,
                                    std::uint64_t hi,
                                    std::uint64_t& rejected) {
  const std::uint64_t span = hi - lo + 1;
  if (span == 0) return rng.next_u64();
  const std::uint64_t limit = std::uint64_t(-1) - std::uint64_t(-1) % span;
  std::uint64_t v = rng.next_u64();
  while (v >= limit) {
    ++rejected;
    v = rng.next_u64();
  }
  return lo + v % span;
}

TEST(Rng, UniformIntMatchesRejectionReference) {
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  constexpr std::uint64_t kTwo63 = std::uint64_t{1} << 63;
  struct Range {
    std::uint64_t lo, hi;
  };
  // Spans 1, 2, 3, 10, 2^32 + 1, 2^63, 2^63 + 1, 2^64 - 1 and the full range.
  const std::array<Range, 10> ranges{{{0, 0},
                                      {5, 6},
                                      {0, 2},
                                      {100, 109},
                                      {0, std::uint64_t{1} << 32},
                                      {0, kTwo63 - 1},
                                      {0, kTwo63},
                                      {1, kTwo63 + 1},
                                      {0, kMax - 1},
                                      {0, kMax}}};
  constexpr int kDraws = 100000;
  for (std::size_t k = 0; k < ranges.size(); ++k) {
    const auto [lo, hi] = ranges[k];
    Rng rng{1000 + k};
    Rng ref{1000 + k};
    std::uint64_t rejected = 0;
    for (int i = 0; i < kDraws; ++i) {
      ASSERT_EQ(rng.uniform_int(lo, hi),
                reference_uniform_int(ref, lo, hi, rejected))
          << "range " << k << " draw " << i;
    }
    // Same generator state: the next raw draws agree.
    for (int i = 0; i < 4; ++i) {
      ASSERT_EQ(rng.next_u64(), ref.next_u64()) << "range " << k;
    }
    if (hi - lo == kTwo63) {
      // Span 2^63 + 1: the limit is 2^63 + 1, so about half the draws are
      // rejected and the lazy path runs its loop many times.
      EXPECT_NEAR(static_cast<double>(rejected) / (kDraws + rejected), 0.5,
                  0.01);
    }
  }
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng{13};
  const double rate = 4.0;
  double sum = 0.0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) sum += rng.exponential(rate);
  EXPECT_NEAR(sum / kN, 1.0 / rate, 0.005);
}

TEST(Rng, ExponentialRejectsNonPositiveRate) {
  Rng rng{1};
  EXPECT_THROW(rng.exponential(0.0), std::invalid_argument);
  EXPECT_THROW(rng.exponential(-1.0), std::invalid_argument);
}

TEST(Rng, NormalMoments) {
  Rng rng{17};
  double sum = 0.0, sumsq = 0.0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) {
    const double x = rng.normal(3.0, 2.0);
    sum += x;
    sumsq += x * x;
  }
  const double mean = sum / kN;
  const double var = sumsq / kN - mean * mean;
  EXPECT_NEAR(mean, 3.0, 0.03);
  EXPECT_NEAR(var, 4.0, 0.1);
}

TEST(Rng, PoissonSmallMean) {
  Rng rng{19};
  const double mean = 3.5;
  double sum = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) sum += static_cast<double>(rng.poisson(mean));
  EXPECT_NEAR(sum / kN, mean, 0.05);
}

TEST(Rng, PoissonLargeMeanUsesNormalApprox) {
  Rng rng{23};
  const double mean = 500.0;
  double sum = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) sum += static_cast<double>(rng.poisson(mean));
  EXPECT_NEAR(sum / kN, mean, 2.0);
}

TEST(Rng, PoissonZeroMean) {
  Rng rng{27};
  EXPECT_EQ(rng.poisson(0.0), 0u);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng{29};
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  auto shuffled = v;
  rng.shuffle(std::span{shuffled});
  EXPECT_FALSE(std::equal(v.begin(), v.end(), shuffled.begin()));
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(v, shuffled);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent{31};
  Rng child = parent.split();
  // The child stream should differ from the parent's continuation.
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent.next_u64() == child.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(AliasTable, MatchesWeights) {
  const std::vector<double> weights{1.0, 2.0, 3.0, 4.0};
  AliasTable table{weights};
  Rng rng{37};
  std::array<int, 4> counts{};
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) ++counts[table.sample(rng)];
  const double total = 10.0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    EXPECT_NEAR(static_cast<double>(counts[i]) / kN, weights[i] / total, 0.01)
        << "bucket " << i;
  }
}

TEST(AliasTable, SingleBucket) {
  const std::vector<double> weights{42.0};
  AliasTable table{weights};
  Rng rng{41};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(table.sample(rng), 0u);
}

TEST(AliasTable, ZeroWeightNeverSampled) {
  const std::vector<double> weights{0.0, 1.0, 0.0, 1.0};
  AliasTable table{weights};
  Rng rng{43};
  for (int i = 0; i < 10000; ++i) {
    const auto s = table.sample(rng);
    EXPECT_TRUE(s == 1 || s == 3);
  }
}

TEST(AliasTable, RejectsInvalidWeights) {
  const std::vector<double> negative{-1.0, 1.0};
  const std::vector<double> all_zero{0.0, 0.0};
  EXPECT_THROW(AliasTable{negative}, std::invalid_argument);
  EXPECT_THROW(AliasTable{all_zero}, std::invalid_argument);
}

TEST(AliasTable, HighlySkewedZipfLike) {
  std::vector<double> weights(1000);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    weights[i] = 1.0 / std::pow(static_cast<double>(i + 1), 1.2);
  }
  AliasTable table{weights};
  Rng rng{47};
  std::vector<int> counts(weights.size(), 0);
  constexpr int kN = 300000;
  for (int i = 0; i < kN; ++i) ++counts[table.sample(rng)];
  // Rank 1 should dominate and sampling frequency should roughly track pmf.
  double wsum = 0.0;
  for (double w : weights) wsum += w;
  EXPECT_NEAR(static_cast<double>(counts[0]) / kN, weights[0] / wsum, 0.01);
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[10], counts[500]);
}

} // namespace
} // namespace spindown::util
