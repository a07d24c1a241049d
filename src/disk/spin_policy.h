// spin_policy.h — when does an idle disk spin down?
//
// The paper uses a fixed idleness threshold, defaulting to the break-even
// time (Table 2: 53.3 s), and sweeps the threshold in Figures 5/6.  The
// related-work section (§2) surveys the competitive-analysis literature on
// this choice; we implement those policies as well, for the ablation bench:
//
//   * FixedThresholdPolicy(T)   — the paper's policy; T = 0 is "immediately
//                                 spin down", a useful extreme, and T = the
//                                 2-competitive break-even time is the
//                                 paper's default.
//   * NeverSpinDownPolicy       — the "no power management" baseline that
//                                 Figure 5's normalization divides by.
//   * RandomizedCompetitivePolicy — draws the threshold from the density
//       f(t) = e^(t/B) / (B (e - 1)),  t in [0, B]   (B = break-even)
//     which is e/(e-1) ~ 1.58-competitive against oblivious adversaries
//     (Karlin et al.; surveyed in the paper's [8]).
//
// A policy is consulted once per idle-period start and returns the timeout
// after which the disk should begin spinning down, or nullopt for "never".
// The disk also feeds every policy two observation taps — completed
// idle-period durations and per-request response times — which the static
// policies here ignore; the *online* policies built on them (EWMA idle
// prediction, the multiplicative-weights "share" expert combiner, the
// slack-aware SLO controller) live in src/adapt/.  sys::PolicySpec names
// every policy and builds it.
#pragma once

#include <optional>
#include <span>

#include "disk/params.h"
#include "util/rng.h"

namespace spindown::disk {

class SpinDownPolicy {
public:
  virtual ~SpinDownPolicy() = default;

  /// Timeout for the idle period that starts now; nullopt = stay idle.
  virtual std::optional<double> idle_timeout(util::Rng& rng) = 0;

  /// Feedback: an idle period just ended (a request arrived).  `duration` is
  /// the full time from going idle to that arrival — through any spin-down
  /// and standby residency — and `spun_down` says whether the policy's
  /// timeout fired during the period.  Stateless policies ignore this; the
  /// online policies in src/adapt/ learn from it.  The Disk calls this
  /// before asking for the next timeout, so a policy always scores period k
  /// before deciding period k+1.
  virtual void observe_idle(double duration, bool spun_down) {
    (void)duration;
    (void)spun_down;
  }

  /// Feedback: a request on this disk completed with the given response
  /// time (completion minus submission).  The slack-aware policy spends the
  /// gap between this signal and its SLO on deeper power saving.
  virtual void observe_completion(double response_time_s) {
    (void)response_time_s;
  }

  /// Observability probe: the policy's current operating point, attached to
  /// every decision event on the trace (kind kPolicy, `aux` field).  Static
  /// policies report their threshold; the adaptive policies report their
  /// learned estimate (EWMA-predicted idle, the share combiner's blended
  /// threshold, the slack controller's current threshold).  Read-only and
  /// purely informational — it must never influence a decision.
  virtual double trace_estimate() const { return 0.0; }
};

class FixedThresholdPolicy final : public SpinDownPolicy {
public:
  explicit FixedThresholdPolicy(double threshold_s);
  std::optional<double> idle_timeout(util::Rng&) override { return threshold_; }
  double trace_estimate() const override { return threshold_; }
  double threshold() const { return threshold_; }

private:
  double threshold_;
};

class NeverSpinDownPolicy final : public SpinDownPolicy {
public:
  std::optional<double> idle_timeout(util::Rng&) override {
    return std::nullopt;
  }
};

class RandomizedCompetitivePolicy final : public SpinDownPolicy {
public:
  explicit RandomizedCompetitivePolicy(const DiskParams& p);
  std::optional<double> idle_timeout(util::Rng& rng) override;

private:
  double break_even_;
};

/// Offline-optimal energy for a single disk given its idle-gap sequence:
/// for each gap g, the adversary-free optimum pays
///   min(P_idle * g, transition_energy + P_standby * max(0, g - t_down - t_up))
/// when the gap fits a full round trip, else P_idle * g.  Used by the
/// ablation bench to report competitive ratios; not a simulation policy
/// (it needs the future).
util::Joules offline_optimal_idle_energy(const DiskParams& p,
                                         std::span<const double> idle_gaps);

} // namespace spindown::disk
