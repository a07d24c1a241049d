#include "adapt/idle_predictor.h"

#include <cmath>
#include <stdexcept>

namespace spindown::adapt {

EwmaIdlePredictorPolicy::EwmaIdlePredictorPolicy(const disk::DiskParams& params,
                                                 double alpha)
    : break_even_(params.break_even_threshold()), alpha_(alpha) {
  if (alpha_ <= 0.0 || alpha_ > 1.0) {
    throw std::invalid_argument{"EwmaIdlePredictorPolicy: alpha in (0, 1]"};
  }
}

std::optional<double> EwmaIdlePredictorPolicy::idle_timeout(util::Rng&) {
  if (observed_ < warmup) return break_even_;
  if (ewma_ - deviation_margin * dev_ > break_even_) {
    return park_fraction * break_even_; // confident long: park early
  }
  // Short or uncertain: dodge the dead zone, bounded loss.
  return guard_factor * break_even_;
}

void EwmaIdlePredictorPolicy::observe_idle(double duration, bool) {
  if (duration < 0.0) return;
  if (observed_ == 0) {
    // RFC 6298-style initialisation: first sample seeds the mean, half of
    // it the deviation.
    ewma_ = duration;
    dev_ = duration / 2.0;
  } else {
    // Asymmetric gain: a surprise-short period (the kind that turns an
    // aggressive park into a stall) adapts twice as fast as a long one.
    const double gain = duration < ewma_ ? std::min(1.0, 2.0 * alpha_)
                                         : alpha_;
    dev_ += gain * (std::abs(duration - ewma_) - dev_);
    ewma_ += gain * (duration - ewma_);
  }
  ++observed_;
}

} // namespace spindown::adapt
