#include "adapt/signals.h"

#include <algorithm>

namespace spindown::adapt {

void StreamingQuantile::add(double x) {
  if (x < 0.0) return;
  ++samples_;
  if (samples_ == 1) {
    estimate_ = x;
    return;
  }
  // The max(estimate, 0.1·x) step floor restarts a collapsed estimate: if
  // the stream jumps upward after the estimate converged near zero, a step
  // proportional to the estimate alone could never catch up.
  const double step = gain_ * std::max(estimate_, x * 0.1);
  if (x > estimate_) {
    estimate_ += step * p_;
  } else {
    estimate_ -= step * (1.0 - p_);
  }
  estimate_ = std::max(0.0, estimate_);
}

} // namespace spindown::adapt
