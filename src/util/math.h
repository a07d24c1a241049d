// math.h — small numeric helpers shared by the workload and core modules.
#pragma once

#include <cstddef>
#include <span>

namespace spindown::util {

/// Generalized harmonic number H_n^(a) = sum_{k=1..n} k^(-a).
/// The paper's Zipf normalizer uses a = 1 - theta with
/// theta = log 0.6 / log 0.4.
double generalized_harmonic(std::size_t n, double a);

/// The paper's Zipf skew constant theta = log 0.6 / log 0.4 (~0.5575), so the
/// popularity exponent 1 - theta is ~0.4425.  Kept as a function (not a
/// constant) so its derivation is visible at call sites.
double paper_zipf_theta();

/// Result of an ordinary least-squares fit y = slope*x + intercept.
struct LinearFit {
  double slope = 0.0;
  double intercept = 0.0;
  double r2 = 0.0; ///< coefficient of determination
};

/// Least-squares fit; x and y must be the same non-zero length.
LinearFit linear_fit(std::span<const double> x, std::span<const double> y);

/// Fit in log10-log10 space, skipping non-positive points.  Used to check the
/// paper's claim that the NERSC size histogram "decreases almost linearly in
/// the log-log scale".
LinearFit log_log_fit(std::span<const double> x, std::span<const double> y);

/// Arithmetic mean (0 for empty input).
double mean(std::span<const double> xs);

} // namespace spindown::util
