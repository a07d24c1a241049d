// slack.h — slack-aware spin-down: spend response-time headroom on energy.
//
// TimeTrader's framing (arXiv:1503.05338): latency *slack* — the gap
// between the response-time SLO and what users actually experience — is a
// resource, and power management is the natural place to spend it.  This
// policy tracks a streaming estimate of a response-time percentile (p99 —
// spin-up stalls hit a few percent of requests, so only the tail sees
// them) from the disk's completion tap and steers a single threshold:
//
//   * estimate above the SLO → widen the threshold multiplicatively (spin
//     down later; protect latency).  Widening is fast (×1.25 per
//     completion over the SLO) because SLO violations compound.
//   * estimate at/below the SLO → narrow it slowly (×0.98) back
//     toward the break-even floor, re-spending the recovered slack.
//
// The threshold is clamped to [floor_factor·B, max_factor·B]; with its
// floor of 1·B the policy is never more aggressive than the
// paper's break-even default — it only *widens* under latency pressure,
// which is precisely the move that dodges break-even's unprofitable
// dead-zone spin-downs (gaps just past B) on bursty traffic, improving
// energy and response together.
//
// The percentile estimator is adapt::StreamingQuantile (signals.h), the
// stochastic-approximation quantile tracker (Frugal-style) — O(1) state,
// converges to the p-quantile, and keeps adapting when the workload
// drifts.
#pragma once

#include <cstdint>
#include <optional>

#include "adapt/signals.h"
#include "disk/params.h"
#include "disk/spin_policy.h"

namespace spindown::adapt {

class SlackAwarePolicy final : public disk::SpinDownPolicy {
public:
  /// The `slack` grammar key's default SLO, in seconds.
  static constexpr double default_target_response_s = 60.0;
  /// Which percentile carries the SLO: spin-up stalls land on the top few
  /// percent of responses, so the SLO must watch the tail to see them.
  static constexpr double percentile = 99.0;
  static constexpr double quantile_gain = 0.05; ///< step, share of estimate
  static constexpr double widen = 1.25;  ///< threshold factor on violation
  static constexpr double narrow = 0.98; ///< threshold factor when met
  static constexpr double floor_factor = 1.0; ///< clamp floor, in B
  static constexpr double max_factor = 8.0;   ///< clamp ceiling, in B

  /// `target_response_s` > 0: the SLO on the tracked percentile.
  explicit SlackAwarePolicy(
      const disk::DiskParams& params,
      double target_response_s = default_target_response_s);

  std::optional<double> idle_timeout(util::Rng& rng) override;
  void observe_completion(double response_time_s) override;

  double threshold() const { return threshold_; }
  /// Trace probe: the controller's current spin-down threshold.
  double trace_estimate() const override { return threshold_; }
  /// Current streaming estimate of the tracked percentile.
  double estimated_percentile() const { return quantile_.estimate(); }
  std::uint64_t completions() const { return quantile_.samples(); }

private:
  double target_response_s_;
  double break_even_;
  double threshold_;
  StreamingQuantile quantile_;
};

} // namespace spindown::adapt
