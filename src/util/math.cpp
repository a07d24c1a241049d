#include "util/math.h"

#include <cassert>
#include <cmath>
#include <vector>

namespace spindown::util {

double generalized_harmonic(std::size_t n, double a) {
  // Summing ascending k loses precision for large n; descending keeps the
  // small tail terms from being absorbed.  n <= a few million in practice.
  double sum = 0.0;
  for (std::size_t k = n; k >= 1; --k) {
    sum += std::pow(static_cast<double>(k), -a);
  }
  return sum;
}

double paper_zipf_theta() {
  return std::log(0.6) / std::log(0.4);
}

LinearFit linear_fit(std::span<const double> x, std::span<const double> y) {
  assert(x.size() == y.size());
  assert(!x.empty());
  const double n = static_cast<double>(x.size());
  double sx = 0, sy = 0, sxx = 0, sxy = 0, syy = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sx += x[i];
    sy += y[i];
    sxx += x[i] * x[i];
    sxy += x[i] * y[i];
    syy += y[i] * y[i];
  }
  const double denom = n * sxx - sx * sx;
  LinearFit fit;
  if (denom == 0.0) {
    fit.intercept = sy / n;
    return fit;
  }
  fit.slope = (n * sxy - sx * sy) / denom;
  fit.intercept = (sy - fit.slope * sx) / n;
  const double ss_tot = syy - sy * sy / n;
  if (ss_tot > 0.0) {
    double ss_res = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      const double e = y[i] - (fit.slope * x[i] + fit.intercept);
      ss_res += e * e;
    }
    fit.r2 = 1.0 - ss_res / ss_tot;
  }
  return fit;
}

LinearFit log_log_fit(std::span<const double> x, std::span<const double> y) {
  assert(x.size() == y.size());
  std::vector<double> lx, ly;
  lx.reserve(x.size());
  ly.reserve(y.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (x[i] > 0.0 && y[i] > 0.0) {
      lx.push_back(std::log10(x[i]));
      ly.push_back(std::log10(y[i]));
    }
  }
  if (lx.size() < 2) return {};
  return linear_fit(lx, ly);
}

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double v : xs) sum += v;
  return sum / static_cast<double>(xs.size());
}

} // namespace spindown::util
