// signals.h — streaming workload-signal estimator for the adaptive
// policies (src/adapt/).
//
//   * StreamingQuantile — the stochastic-approximation (Frugal-style)
//     quantile tracker: step up by gain·q·p on a sample above the estimate,
//     down by gain·q·(1−p) otherwise.  In equilibrium the up-steps (taken
//     with probability 1−p) balance the down-steps (probability p), which
//     happens exactly at the p-quantile; the multiplicative step keeps it
//     adapting under drift.
//
// It is a deterministic function of the sample sequence — no clocks, no
// randomness — so every consumer inherits the shard bit-identity contract
// for free.
#pragma once

#include <cstdint>

namespace spindown::adapt {

/// Streaming p-quantile tracker.  add() is O(1); estimate() converges to
/// the p-quantile of the (possibly drifting) sample distribution.  The
/// first sample initializes the estimate directly.
class StreamingQuantile {
public:
  /// `percentile` in (0, 100); `gain` in (0, 1) — the step size as a
  /// fraction of the current estimate (validated by the policy config,
  /// asserted here only by arithmetic).
  StreamingQuantile(double percentile, double gain)
      : p_(percentile / 100.0), gain_(gain) {}

  void add(double x);

  double estimate() const { return estimate_; }
  std::uint64_t samples() const { return samples_; }

private:
  double p_;
  double gain_;
  double estimate_ = 0.0;
  std::uint64_t samples_ = 0;
};

} // namespace spindown::adapt
