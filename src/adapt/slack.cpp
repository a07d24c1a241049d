#include "adapt/slack.h"

#include <algorithm>
#include <stdexcept>

namespace spindown::adapt {

SlackAwarePolicy::SlackAwarePolicy(const disk::DiskParams& params,
                                   double target_response_s)
    : target_response_s_(target_response_s),
      break_even_(params.break_even_threshold()),
      threshold_(floor_factor * break_even_),
      quantile_(percentile, quantile_gain) {
  if (target_response_s_ <= 0.0) {
    throw std::invalid_argument{"SlackAwarePolicy: SLO must be > 0"};
  }
}

std::optional<double> SlackAwarePolicy::idle_timeout(util::Rng&) {
  return threshold_;
}

void SlackAwarePolicy::observe_completion(double response_time_s) {
  if (response_time_s < 0.0) return;
  quantile_.add(response_time_s);
  const double lo = floor_factor * break_even_;
  const double hi = max_factor * break_even_;
  if (quantile_.estimate() > target_response_s_) {
    threshold_ = std::min(hi, threshold_ * widen);
  } else {
    threshold_ = std::max(lo, threshold_ * narrow);
  }
}

} // namespace spindown::adapt
