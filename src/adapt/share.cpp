#include "adapt/share.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace spindown::adapt {

double counterfactual_idle_cost(const disk::DiskParams& params,
                                double threshold_s, double duration_s,
                                double delay_penalty_w) {
  if (duration_s <= threshold_s) {
    // The arrival beat the timeout: the whole period idled at idle power.
    return params.idle_w * duration_s;
  }
  double cost = params.idle_w * threshold_s + params.transition_energy();
  const double past_round_trip =
      duration_s - threshold_s - params.spindown_s - params.spinup_s;
  if (past_round_trip > 0.0) cost += params.standby_w * past_round_trip;
  // Delay seen by the ending arrival: if it lands mid-retraction it waits
  // out the rest of the spin-down (the head cannot abort), then the full
  // spin-up either way.
  const double retraction_left =
      std::max(0.0, threshold_s + params.spindown_s - duration_s);
  cost += delay_penalty_w * (retraction_left + params.spinup_s);
  return cost;
}

ShareThresholdPolicy::ShareThresholdPolicy(const disk::DiskParams& params,
                                           std::uint32_t experts)
    : params_(params) {
  if (experts < 2) {
    throw std::invalid_argument{"ShareThresholdPolicy: need >= 2 experts"};
  }
  // Grid: the "park immediately" extreme plus a geometric ladder from B/8
  // to max_factor·B — dense near the break-even point where the economics
  // pivot, sparse in the tails.
  const double B = params_.break_even_threshold();
  const std::size_t n = experts;
  thresholds_.reserve(n);
  thresholds_.push_back(0.0);
  const double lo = B / 8.0;
  const double hi = max_factor * B;
  const auto rungs = static_cast<double>(n - 2);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const double frac = rungs > 0.0 ? static_cast<double>(i) / rungs : 0.0;
    thresholds_.push_back(lo * std::pow(hi / lo, frac));
  }
  weights_.assign(n, 1.0 / static_cast<double>(n));
  losses_.assign(n, 0.0);
}

double ShareThresholdPolicy::current_threshold() const {
  double t = 0.0;
  for (std::size_t i = 0; i < thresholds_.size(); ++i) {
    t += weights_[i] * thresholds_[i];
  }
  return t;
}

std::optional<double> ShareThresholdPolicy::idle_timeout(util::Rng&) {
  return current_threshold();
}

void ShareThresholdPolicy::observe_idle(double duration, bool) {
  if (duration < 0.0) return;
  // Counterfactual losses, normalised into [0, 1] by the worst expert so
  // eta has a scale-free meaning regardless of period length.  losses_ is a
  // pre-sized scratch buffer: the update runs once per idle period on the
  // simulator's steady-state path, which stays allocation-free.
  std::vector<double>& losses = losses_;
  double worst = 0.0;
  for (std::size_t i = 0; i < thresholds_.size(); ++i) {
    losses[i] = counterfactual_idle_cost(params_, thresholds_[i], duration,
                                         delay_penalty_w);
    worst = std::max(worst, losses[i]);
  }
  if (worst <= 0.0) return; // zero-length period: nothing to learn
  double sum = 0.0;
  for (std::size_t i = 0; i < weights_.size(); ++i) {
    weights_[i] *= std::exp(-eta * losses[i] / worst);
    sum += weights_[i];
  }
  // Fixed-share mixing (Herbster–Warmuth): keep a uniform floor under every
  // expert so a regime change can resurrect it.
  const double n = static_cast<double>(weights_.size());
  for (auto& w : weights_) {
    w = (1.0 - share) * (w / sum) + share / n;
  }
}

} // namespace spindown::adapt
