// arrival.h — arrival processes: *when* do requests arrive?
//
// The paper's Table 1 workload is a homogeneous Poisson process (rate R in
// [1, 12] req/s), which makes every spin-down question stationary: the best
// idleness threshold is one number, found by the offline sweeps of
// Figures 5/6.  Real farm traffic is diurnal and bursty, so the adaptive
// policies in src/adapt/ need arrival processes whose rate *moves*:
//
//   * PoissonArrivals       — the Table 1 process: one exponential draw
//                             per arrival.
//   * PiecewiseRateArrivals — a non-homogeneous Poisson process with a
//                             piecewise-constant rate function, sampled by
//                             Lewis–Shedler thinning; an optional period
//                             wraps the rate function for diurnal cycles.
//   * MmppArrivals          — a 2-state Markov-modulated Poisson process:
//                             exponential dwell in each state, each state
//                             with its own Poisson rate (bursts vs. lulls).
//
// All processes advance an internal clock and emit strictly increasing
// arrival times; determinism comes entirely from the caller's Rng.
// sys::WorkloadSpec names every process and builds it.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/rng.h"

namespace spindown::workload {

/// Generator of strictly increasing arrival times.
class ArrivalProcess {
public:
  virtual ~ArrivalProcess() = default;

  /// Advance and return the next arrival time.
  virtual double next_arrival(util::Rng& rng) = 0;

  /// Current clock (time of the last arrival generated).
  virtual double now() const = 0;
};

/// Homogeneous Poisson process: exponential inter-arrivals at a fixed rate.
/// Consumes exactly one exponential draw per arrival.
class PoissonArrivals final : public ArrivalProcess {
public:
  explicit PoissonArrivals(double rate);

  double next_arrival(util::Rng& rng) override;
  double now() const override { return now_; }
  double rate() const { return rate_; }

private:
  double rate_;
  double now_ = 0.0;
};

/// One piece of a piecewise-constant rate function: `rate` applies from
/// `start` (seconds) until the next segment's start.
struct RateSegment {
  double start = 0.0;
  double rate = 0.0;
};

/// Non-homogeneous Poisson process with a piecewise-constant rate, sampled
/// by thinning: candidate arrivals are generated at the peak rate and
/// accepted with probability rate(t)/peak.  With `period > 0` the rate
/// function wraps (diurnal cycles); otherwise the last segment's rate holds
/// forever (and must be positive, or the process would never emit again).
class PiecewiseRateArrivals final : public ArrivalProcess {
public:
  /// `segments` must be non-empty, start at 0, be strictly increasing in
  /// `start`, and have non-negative rates with at least one positive.
  /// With a period, every start must lie inside [0, period).
  explicit PiecewiseRateArrivals(std::vector<RateSegment> segments,
                                 double period = 0.0);

  double next_arrival(util::Rng& rng) override;
  double now() const override { return now_; }

  /// The instantaneous rate at absolute time t.
  double rate_at(double t) const;
  /// rate_at(t) for times that never decrease from one call to the next,
  /// as next_arrival's thinning candidates do.  The rate found by the last
  /// lookup is cached with the last time its segment covers, so fmod runs
  /// only when t passes that time: about once per segment per period.
  double rate_forward(double t);
  double peak_rate() const { return peak_; }
  double period() const { return period_; }
  const std::vector<RateSegment>& segments() const { return segments_; }

private:
  /// t's place in the rate function: fmod(t, period) in [0, period), or t
  /// itself without a period.
  double phase(double t) const;
  /// The segment holding phase `tm`.
  std::size_t segment_of(double tm) const;

  std::vector<RateSegment> segments_;
  double period_;
  double peak_ = 0.0;
  double now_ = 0.0;
  double cursor_rate_ = 0.0;
  /// The last time cursor_rate_ covers; below any time before the first
  /// lookup.
  double cursor_last_ = -std::numeric_limits<double>::infinity();
};

/// 2-state MMPP parameters: Poisson rate and mean (exponential) dwell time
/// per state.  State 0 is the initial state.
struct MmppParams {
  std::array<double, 2> rate{8.0, 0.5};         ///< req/s per state
  std::array<double, 2> mean_dwell{120.0, 480.0}; ///< seconds per visit
};

/// 2-state Markov-modulated Poisson process.  Memorylessness lets the
/// competing-exponentials simulation discard the losing candidate each
/// step, so the process consumes O(1) draws per arrival plus one per state
/// switch.
class MmppArrivals final : public ArrivalProcess {
public:
  /// Rates must be non-negative with at least one positive; dwells > 0.
  explicit MmppArrivals(MmppParams params);

  double next_arrival(util::Rng& rng) override;
  double now() const override { return now_; }

  const MmppParams& params() const { return params_; }
  /// Current modulating state (0 or 1) and total switches so far —
  /// observable so tests can verify dwell statistics.
  int state() const { return state_; }
  std::uint64_t switches() const { return switches_; }

private:
  MmppParams params_;
  double now_ = 0.0;
  double switch_at_ = 0.0;
  int state_ = 0;
  bool started_ = false;
  std::uint64_t switches_ = 0;
};

} // namespace spindown::workload
