// share.h — fixed-share multiplicative-weights combiner over a grid of
// fixed spin-down thresholds.
//
// The Karlin et al. framework (surveyed in the paper's §2 and implemented
// as RandomizedCompetitivePolicy in disk/spin_policy.h) treats each fixed
// threshold as an expert.  The key observation — from Helmbold et al.,
// "Adaptive disk spin-down for mobile computers" — is that an idle period
// of duration d scores *every* expert counterfactually: the cost a
// threshold T would have paid on that period is fully determined by
// (T, d, DiskParams), whether or not T was the threshold actually used.
// So after each period every expert's weight is updated with its own loss,
// and the played threshold is the weight-weighted mean of the grid.
//
// Losses combine energy and a response-time penalty: if d > T the next
// arrival meets a parked (or retracting) disk and waits out the remaining
// spin-down plus the full spin-up; that delay is billed at
// `delay_penalty_w` joule-equivalents per second, making the energy/latency
// exchange rate explicit.
//
// The "share" (fixed-share) step redistributes a small fraction of every
// weight uniformly each round, so the combiner can re-converge after a
// regime change instead of being stuck with collapsed weights — exactly the
// non-stationary setting the NHPP/MMPP workloads create.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "disk/params.h"
#include "disk/spin_policy.h"

namespace spindown::adapt {

/// Energy-plus-penalty cost a fixed threshold T would have paid on an idle
/// period of duration d (the counterfactual loss fed to every expert):
/// idle draw until min(T, d); if d > T also the transition energy, standby
/// draw for any remainder past the round trip, and the delay penalty for
/// the remaining retraction plus the spin-up the arrival waits out.
double counterfactual_idle_cost(const disk::DiskParams& params,
                                double threshold_s, double duration_s,
                                double delay_penalty_w);

class ShareThresholdPolicy final : public disk::SpinDownPolicy {
public:
  /// The `share` grammar key's default grid size.
  static constexpr std::uint32_t default_experts = 12;
  static constexpr double eta = 4.0;    ///< learning rate on normalised losses
  static constexpr double share = 0.05; ///< fixed-share mixing per round
  static constexpr double delay_penalty_w = 25.0; ///< J per second of delay
  static constexpr double max_factor = 2.0; ///< grid spans (0, max_factor·B]

  /// `experts` >= 2: the grid holds T = 0 plus experts − 1 geometric rungs.
  explicit ShareThresholdPolicy(const disk::DiskParams& params,
                                std::uint32_t experts = default_experts);

  std::optional<double> idle_timeout(util::Rng& rng) override;
  void observe_idle(double duration, bool spun_down) override;

  /// The threshold currently played: the weight-weighted mean of the grid.
  double current_threshold() const;
  /// Trace probe: the blended threshold the combiner is playing.
  double trace_estimate() const override { return current_threshold(); }
  const std::vector<double>& thresholds() const { return thresholds_; }
  const std::vector<double>& weights() const { return weights_; }

private:
  disk::DiskParams params_;
  std::vector<double> thresholds_;
  std::vector<double> weights_; ///< kept normalised to sum 1
  std::vector<double> losses_;  ///< per-round scratch (no steady-state allocs)
};

} // namespace spindown::adapt
