#include "disk/spin_policy.h"

#include <cmath>
#include <stdexcept>

#include "util/units.h"

namespace spindown::disk {

FixedThresholdPolicy::FixedThresholdPolicy(double threshold_s)
    : threshold_(threshold_s) {
  if (threshold_s < 0.0) {
    throw std::invalid_argument{"FixedThresholdPolicy: negative threshold"};
  }
}

RandomizedCompetitivePolicy::RandomizedCompetitivePolicy(const DiskParams& p)
    : break_even_(p.break_even_threshold()) {}

std::optional<double> RandomizedCompetitivePolicy::idle_timeout(
    util::Rng& rng) {
  // Inverse CDF of f(t) = e^(t/B) / (B(e-1)) on [0, B]:
  //   F(t) = (e^(t/B) - 1) / (e - 1)  =>  t = B ln(1 + u(e - 1)).
  const double u = rng.uniform01();
  return break_even_ * std::log(1.0 + u * (M_E - 1.0));
}

util::Joules offline_optimal_idle_energy(const DiskParams& p,
                                         std::span<const double> idle_gaps) {
  const double round_trip = p.spindown_s + p.spinup_s;
  util::Joules total = 0.0;
  for (double g : idle_gaps) {
    const util::Joules stay_idle = p.idle_w * g;
    if (g <= round_trip) {
      total += stay_idle;
      continue;
    }
    const util::Joules go_standby =
        p.transition_energy() + p.standby_w * (g - round_trip);
    total += std::min(stay_idle, go_standby);
  }
  return total;
}

} // namespace spindown::disk
