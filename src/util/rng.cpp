#include "util/rng.h"

#include <cmath>
#include <stdexcept>

namespace spindown::util {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed) {
  // SplitMix64 expansion guarantees a non-zero xoshiro state for any seed.
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
}

double Rng::uniform(double lo, double hi) {
  return lo + (hi - lo) * uniform01();
}

double Rng::normal(double mean, double stddev) {
  const double u1 = 1.0 - uniform01();
  const double u2 = uniform01();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  return mean + stddev * mag * std::cos(2.0 * M_PI * u2);
}

std::uint64_t Rng::poisson(double mean) {
  if (mean < 0.0) throw std::invalid_argument{"poisson mean must be >= 0"};
  if (mean == 0.0) return 0;
  if (mean < 64.0) {
    // Knuth's product-of-uniforms method.
    const double limit = std::exp(-mean);
    std::uint64_t k = 0;
    double p = 1.0;
    do {
      ++k;
      p *= uniform01();
    } while (p > limit);
    return k - 1;
  }
  // Normal approximation with continuity correction; adequate for the large
  // means we use it for (batch sizes, request counts).
  const double v = normal(mean, std::sqrt(mean));
  return v <= 0.0 ? 0 : static_cast<std::uint64_t>(v + 0.5);
}

Rng Rng::split() {
  return Rng{next_u64()};
}

AliasTable::AliasTable(std::span<const double> weights) {
  const std::size_t n = weights.size();
  if (n == 0) return;
  double total = 0.0;
  for (double w : weights) {
    if (w < 0.0 || !std::isfinite(w)) {
      throw std::invalid_argument{
          "alias table weights must be finite and >= 0"};
    }
    total += w;
  }
  if (total <= 0.0) {
    throw std::invalid_argument{"alias table weights sum to zero"};
  }

  prob_.assign(n, 0.0);
  alias_.assign(n, 0);
  // Scaled probabilities; Vose's stable partition into small/large buckets.
  std::vector<double> scaled(n);
  std::vector<std::uint32_t> small, large;
  small.reserve(n);
  large.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    scaled[i] = weights[i] * static_cast<double>(n) / total;
    (scaled[i] < 1.0 ? small : large).push_back(static_cast<std::uint32_t>(i));
  }
  while (!small.empty() && !large.empty()) {
    const std::uint32_t s = small.back();
    small.pop_back();
    const std::uint32_t l = large.back();
    prob_[s] = scaled[s];
    alias_[s] = l;
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    if (scaled[l] < 1.0) {
      large.pop_back();
      small.push_back(l);
    }
  }
  // Numerical leftovers are probability-1 buckets.
  for (std::uint32_t i : large) prob_[i] = 1.0;
  for (std::uint32_t i : small) prob_[i] = 1.0;
}

} // namespace spindown::util
