// distributions.h — the statistical models behind the paper's workloads.
//
// Table 1 of the paper defines the synthetic workload:
//   * access frequencies: Zipf-like, p_i = c / rank_i^(1-theta) with
//     theta = log 0.6 / log 0.4 (so the exponent 1-theta ~ 0.4425) and
//     c = 1 / H_n^(1-theta) the normalizer,
//   * file sizes: inverse Zipf-like (most popular file is smallest),
//     188 MB .. 20 GB,
//   * arrivals: Poisson with rate R in [1, 12] requests/second
//     (workload::PoissonArrivals, arrival.h).
// The NERSC synthesizer additionally needs a bounded Pareto (power-law) size
// sampler whose mean can be calibrated to the published 544 MB.
#pragma once

#include <cstddef>
#include <vector>

#include "util/rng.h"

namespace spindown::workload {

/// Zipf-like popularity over ranks 1..n: pmf(i) = c / i^exponent.
class ZipfPopularity {
public:
  /// exponent > 0; n >= 1.  For the paper's workload use
  /// `ZipfPopularity::paper(n)`.
  ZipfPopularity(std::size_t n, double exponent);

  /// The paper's parameterization: exponent = 1 - log0.6/log0.4.
  static ZipfPopularity paper(std::size_t n);

  std::size_t n() const { return n_; }
  double exponent() const { return exponent_; }

  /// Probability of rank i (1-based).  Sums to 1 over 1..n.
  double pmf(std::size_t rank) const;

  /// All probabilities, index 0 holding rank 1.
  const std::vector<double>& probabilities() const { return probs_; }

  /// O(1) sampling of a rank in [1, n].
  std::size_t sample(util::Rng& rng) const;

  /// The alias table behind sample(): its indices are rank - 1.
  const util::AliasTable& alias() const { return alias_; }

private:
  std::size_t n_;
  double exponent_;
  double normalizer_; // 1 / H_n^(exponent)
  std::vector<double> probs_;
  util::AliasTable alias_;
};

/// Bounded Pareto distribution on [lo, hi] with shape alpha > 0, alpha != 1.
/// Used for NERSC-like file sizes: heavy-tailed, log-log-linear histogram.
class BoundedPareto {
public:
  BoundedPareto(double lo, double hi, double alpha);

  double lo() const { return lo_; }
  double hi() const { return hi_; }
  double alpha() const { return alpha_; }

  /// Closed-form mean of the distribution.
  double mean() const;

  double sample(util::Rng& rng) const;

  /// Find alpha in (0.05, 5] such that mean() == target, by bisection.
  /// Throws std::invalid_argument if the target is outside (lo, hi).
  static BoundedPareto with_mean(double lo, double hi, double target_mean);

private:
  double lo_, hi_, alpha_;
  double lo_a_, hi_a_; // lo^alpha and hi^alpha, computed once
};

} // namespace spindown::workload
