// idle_predictor.h — EWMA idle-time prediction for online spin-down.
//
// The paper's fixed break-even threshold B is minimax-optimal when nothing
// is known about the next idle period (2-competitive, Karlin et al.).  But
// the disk *does* know something: the durations of the periods it just
// lived through.  This policy keeps an exponentially-weighted moving
// average of completed idle-period durations plus an EWMA of the absolute
// deviation (the TCP RTT/RTTVAR estimator), giving a confidence band
// [ewma − k·dev, ewma + k·dev] for the next period:
//
//   * band entirely above B  → predicted-long: park after a token
//     park_fraction·B wait (0.1·B ≈ 5 s).  The arrival would have
//     met a parked disk under the fixed policy anyway, so this saves almost
//     the whole B-seconds-at-idle-power ramp (≈ 400 J on Table 2's disk) at
//     no extra response cost when the prediction holds — and the token wait
//     means a sudden burst (gaps shorter than it) never triggers the park
//     at all, so a regime change costs one wrong park at most rarely.
//   * otherwise              → raise the threshold to guard·B (2B).
//     This dodges the fixed policy's "dead zone" — gaps just past B where
//     spinning down loses energy *and* delays the next arrival — while
//     keeping the worst case bounded (a wrong prediction costs at most
//     guard·B extra idle seconds, i.e. the policy stays (1 + guard +
//     round-trip/B)-competitive on any single period).
//
// Adaptation is deliberately asymmetric (the TCP congestion-control shape):
// a period shorter than the current estimate updates at twice the gain, so
// one surprise-short period after a lull pulls the policy out of its
// aggressive regime almost immediately, while entering that regime takes
// several consistently long periods.  Until `warmup` periods have been
// observed the policy behaves exactly like the paper's break-even default.
#pragma once

#include <cstdint>
#include <optional>

#include "disk/params.h"
#include "disk/spin_policy.h"

namespace spindown::adapt {

class EwmaIdlePredictorPolicy final : public disk::SpinDownPolicy {
public:
  /// The `ewma` grammar key's default EWMA gain.
  static constexpr double default_alpha = 0.25;
  static constexpr double deviation_margin = 1.0; ///< k in ewma ± k·dev
  static constexpr double guard_factor = 2.0;  ///< predicted-short T, in B
  static constexpr double park_fraction = 0.1; ///< predicted-long T, in B
  static constexpr std::uint64_t warmup = 3; ///< periods before the band

  /// `alpha` in (0, 1]: the EWMA gain for mean and deviation.
  explicit EwmaIdlePredictorPolicy(const disk::DiskParams& params,
                                   double alpha = default_alpha);

  std::optional<double> idle_timeout(util::Rng& rng) override;
  void observe_idle(double duration, bool spun_down) override;

  /// Trace probe: the EWMA-predicted next idle duration.
  double trace_estimate() const override { return ewma_; }

  double predicted_idle() const { return ewma_; }
  std::uint64_t observed() const { return observed_; }
  double break_even() const { return break_even_; }

private:
  double break_even_;
  double alpha_;
  double ewma_ = 0.0;
  double dev_ = 0.0;
  std::uint64_t observed_ = 0;
};

} // namespace spindown::adapt
