// rng.h — deterministic pseudo-random number generation.
//
// Simulation experiments must be reproducible from a single 64-bit seed, so
// we carry our own generator instead of relying on the (implementation
// defined) std:: distributions.  The generator is xoshiro256**, seeded via
// SplitMix64, which is the standard, well-tested combination; all sampling
// routines on top of it are written out explicitly so every platform produces
// bit-identical streams.
#pragma once

#include <array>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "util/prefetch.h"

namespace spindown::util {

/// SplitMix64 step: used for seeding and as a cheap stateless mixer.
std::uint64_t splitmix64(std::uint64_t& state);

/// xoshiro256** by Blackman & Vigna — fast, 256-bit state, passes BigCrush.
class Rng {
public:
  /// Seed via SplitMix64 expansion; the default seed gives a usable stream.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Uniform 64-bit value.
  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1) with 53 bits of precision.
  double uniform01() {
    // Take the top 53 bits: uniform in [0,1) with full double precision.
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in the inclusive range [lo, hi] (unbiased, via rejection).
  std::uint64_t uniform_int(std::uint64_t lo, std::uint64_t hi) {
    assert(lo <= hi);
    constexpr std::uint64_t kMax = ~std::uint64_t{0};
    const std::uint64_t span = hi - lo + 1;
    if (span == 0) return next_u64(); // full 64-bit range requested
    // Rejection sampling to avoid modulo bias.  The limit kMax - kMax % span
    // exceeds kMax - span, so only a draw in the top `span` values can reach
    // it: the division that finds the limit waits for such a draw.
    std::uint64_t v = next_u64();
    if (v > kMax - span) {
      const std::uint64_t limit = kMax - kMax % span;
      while (v >= limit) v = next_u64();
    }
    return lo + v % span;
  }

  /// Exponential variate with the given rate (mean 1/rate); rate must be > 0.
  double exponential(double rate) {
    if (rate <= 0.0) {
      throw std::invalid_argument{"exponential rate must be > 0"};
    }
    // 1 - uniform01() is in (0,1], so the log is finite.
    return -std::log(1.0 - uniform01()) / rate;
  }

  /// Standard normal via Box–Muller (no cached spare, keeps state minimal).
  double normal(double mean = 0.0, double stddev = 1.0);

  /// Poisson-distributed count with the given mean (Knuth for small means,
  /// normal approximation above 64 where Knuth's product underflows).
  std::uint64_t poisson(double mean);

  /// Fisher–Yates shuffle of a span, deterministic given the stream state.
  template <typename T>
  void shuffle(std::span<T> items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(uniform_int(0, i - 1));
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }

  /// Split off an independent generator (for parallel sweeps): the child is
  /// seeded from this stream, so a parent seed fully determines the family.
  Rng split();

private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

/// Walker alias method for O(1) sampling from a fixed discrete distribution.
/// Build cost is O(n); ideal for the Zipf popularity table with n = 40,000+.
class AliasTable {
public:
  AliasTable() = default;
  /// Weights need not be normalized; they must be non-negative, not all zero.
  explicit AliasTable(std::span<const double> weights);

  /// Sample an index in [0, size()): resolve() of a uniform bucket and a
  /// uniform coin, drawn in that order.
  std::size_t sample(Rng& rng) const {
    assert(!prob_.empty());
    const auto i = static_cast<std::size_t>(rng.uniform_int(0, size() - 1));
    return resolve(i, rng.uniform01());
  }

  /// The index that bucket `i` and `coin` in [0, 1) sample: the bucket
  /// itself, or its alias.  Splitting the draws from this lookup lets a
  /// caller draw many samples first and resolve them in a second pass.
  std::size_t resolve(std::size_t i, double coin) const {
    return coin < prob_[i] ? i : alias_[i];
  }

  /// Hint that resolve(i, ...) comes soon.
  void prefetch(std::size_t i) const {
    util::prefetch(prob_.data() + i);
    util::prefetch(alias_.data() + i);
  }

  std::size_t size() const { return prob_.size(); }
  bool empty() const { return prob_.empty(); }

private:
  std::vector<double> prob_;
  std::vector<std::uint32_t> alias_;
};

} // namespace spindown::util
