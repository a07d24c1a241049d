#include "workload/distributions.h"

#include <cassert>
#include <cmath>
#include <stdexcept>

#include "util/math.h"

namespace spindown::workload {

ZipfPopularity::ZipfPopularity(std::size_t n, double exponent)
    : n_(n), exponent_(exponent) {
  if (n == 0) throw std::invalid_argument{"ZipfPopularity: n must be >= 1"};
  if (exponent <= 0.0) {
    throw std::invalid_argument{"ZipfPopularity: exponent must be > 0"};
  }
  normalizer_ = 1.0 / util::generalized_harmonic(n, exponent);
  probs_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    probs_[i] = normalizer_ * std::pow(static_cast<double>(i + 1), -exponent);
  }
  alias_ = util::AliasTable{probs_};
}

ZipfPopularity ZipfPopularity::paper(std::size_t n) {
  return ZipfPopularity{n, 1.0 - util::paper_zipf_theta()};
}

double ZipfPopularity::pmf(std::size_t rank) const {
  assert(rank >= 1 && rank <= n_);
  return probs_[rank - 1];
}

std::size_t ZipfPopularity::sample(util::Rng& rng) const {
  return alias_.sample(rng) + 1;
}

BoundedPareto::BoundedPareto(double lo, double hi, double alpha)
    : lo_(lo), hi_(hi), alpha_(alpha), lo_a_(std::pow(lo, alpha)),
      hi_a_(std::pow(hi, alpha)) {
  if (!(lo > 0.0) || !(hi > lo)) {
    throw std::invalid_argument{"BoundedPareto: need 0 < lo < hi"};
  }
  if (alpha <= 0.0 || alpha == 1.0) {
    throw std::invalid_argument{"BoundedPareto: alpha must be > 0, != 1"};
  }
}

double BoundedPareto::mean() const {
  // E[X] = alpha/(alpha-1) * (lo^alpha)(lo^(1-alpha) - hi^(1-alpha))
  //        / (1 - (lo/hi)^alpha)
  const double num =
      alpha_ / (alpha_ - 1.0) * lo_a_ *
      (std::pow(lo_, 1.0 - alpha_) - std::pow(hi_, 1.0 - alpha_));
  const double den = 1.0 - std::pow(lo_ / hi_, alpha_);
  return num / den;
}

double BoundedPareto::sample(util::Rng& rng) const {
  // Inverse-CDF sampling of the truncated Pareto.
  const double u = rng.uniform01();
  const double x = std::pow(-(u * hi_a_ - u * lo_a_ - hi_a_) / (hi_a_ * lo_a_),
                            -1.0 / alpha_);
  return std::min(std::max(x, lo_), hi_);
}

BoundedPareto BoundedPareto::with_mean(double lo, double hi,
                                       double target_mean) {
  if (!(target_mean > lo) || !(target_mean < hi)) {
    throw std::invalid_argument{
        "BoundedPareto::with_mean: target outside (lo, hi)"};
  }
  // mean() is monotone decreasing in alpha on (0, inf)\{1}: larger alpha puts
  // more mass near lo.  Bisection over alpha, dodging the removable
  // singularity at alpha = 1 by nudging.
  auto mean_of = [&](double a) {
    if (std::abs(a - 1.0) < 1e-9) a = 1.0 + 1e-9;
    return BoundedPareto{lo, hi, a}.mean();
  };
  double a_lo = 0.05, a_hi = 5.0;
  if (mean_of(a_lo) < target_mean || mean_of(a_hi) > target_mean) {
    throw std::invalid_argument{
        "BoundedPareto::with_mean: target mean unreachable in alpha range"};
  }
  for (int iter = 0; iter < 200; ++iter) {
    const double mid = 0.5 * (a_lo + a_hi);
    if (mean_of(mid) > target_mean) {
      a_lo = mid; // mean too large -> increase alpha
    } else {
      a_hi = mid;
    }
  }
  double a = 0.5 * (a_lo + a_hi);
  if (std::abs(a - 1.0) < 1e-9) a = 1.0 + 1e-9;
  return BoundedPareto{lo, hi, a};
}

} // namespace spindown::workload
