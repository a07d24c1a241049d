#include "adapt/slack.h"

#include <algorithm>
#include <stdexcept>

namespace spindown::adapt {

SlackAwarePolicy::SlackAwarePolicy(const disk::DiskParams& params,
                                   SlackConfig config)
    : config_(config), break_even_(params.break_even_threshold()),
      threshold_(config.floor_factor * break_even_),
      quantile_(config.percentile, config.quantile_gain) {
  if (config_.target_response_s <= 0.0) {
    throw std::invalid_argument{"SlackAwarePolicy: SLO must be > 0"};
  }
  if (config_.percentile <= 0.0 || config_.percentile >= 100.0) {
    throw std::invalid_argument{"SlackAwarePolicy: percentile in (0, 100)"};
  }
  if (config_.quantile_gain <= 0.0 || config_.quantile_gain >= 1.0) {
    throw std::invalid_argument{"SlackAwarePolicy: quantile_gain in (0, 1)"};
  }
  if (config_.widen <= 1.0 || config_.narrow <= 0.0 || config_.narrow > 1.0) {
    throw std::invalid_argument{
        "SlackAwarePolicy: need widen > 1 and narrow in (0, 1]"};
  }
  if (config_.floor_factor <= 0.0 ||
      config_.max_factor < config_.floor_factor) {
    throw std::invalid_argument{
        "SlackAwarePolicy: need 0 < floor_factor <= max_factor"};
  }
}

std::optional<double> SlackAwarePolicy::idle_timeout(util::Rng&) {
  return threshold_;
}

void SlackAwarePolicy::observe_completion(double response_time_s) {
  if (response_time_s < 0.0) return;
  quantile_.add(response_time_s);
  const double lo = config_.floor_factor * break_even_;
  const double hi = config_.max_factor * break_even_;
  if (quantile_.estimate() > config_.target_response_s) {
    threshold_ = std::min(hi, threshold_ * config_.widen);
  } else {
    threshold_ = std::max(lo, threshold_ * config_.narrow);
  }
}

} // namespace spindown::adapt
