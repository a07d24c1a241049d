// reference_disk.h — a deliberately naive single-disk simulator, used as a
// differential oracle for disk::Disk.
//
// One disk, FCFS, the constant position_time(), and a fixed idleness
// threshold (fixed:T with T = 0 allowed; break-even is fixed at the
// break-even time) or never.  There is no event calendar: each arrival is
// resolved in one straight-line step from four numbers — when the queue
// drains (`free_at_`), and the idle period's start, sleep and standby
// times.  It shares no code with the engine; only the floating-point order
// of each timestamp is mirrored, so results compare with exact equality:
//
//   completion = (start + position_time()) + transfer_time(bytes)
//   sleep      = idle_since + T
//   standby    = sleep + spindown_s
//   service after a spin-up starts at (spin-up start) + spinup_s
//
// Tie rule (the engine's): everything the disk does at time t happens
// before an arrival at t — a completion at t idles the disk first, a sleep
// time at t starts the spin-down first, a standby time at t parks it first.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <optional>

#include "disk/params.h"
#include "disk/power.h"
#include "util/units.h"

namespace spindown::test_support {

struct ReferenceRequest {
  double arrival = 0.0;
  double service_start = 0.0;
  double completion = 0.0;
};

struct ReferenceMetrics {
  std::array<double, disk::kPowerStateCount> state_time{};
  std::uint64_t spin_ups = 0;
  std::uint64_t spin_downs = 0;
  std::uint64_t idle_periods = 0;
};

class ReferenceDisk {
public:
  /// `threshold` nullopt = never spin down.  The disk starts idle at t = 0.
  ReferenceDisk(const disk::DiskParams& p, std::optional<double> threshold)
      : p_(p), threshold_(threshold) {}

  /// Serve a request arriving at `a` (arrivals must be non-decreasing).
  ReferenceRequest submit(double a, util::Bytes bytes) {
    using disk::PowerState;
    double start = 0.0;
    if (a < free_at_) {
      start = free_at_; // busy: FCFS behind the queue
    } else {
      close_service();
      ++m_.idle_periods;
      if (a < sleep_at()) {
        start = a; // still idle
      } else {
        enter_sleep();
        const double spin_up_at = a < standby_at() ? standby_at() : a;
        at(standby_at(), PowerState::kStandby);
        at(spin_up_at, PowerState::kSpinningUp);
        ++m_.spin_ups;
        start = spin_up_at + p_.spinup_s;
      }
    }
    at(start, PowerState::kPositioning);
    transfer_start_ = start + p_.position_time();
    at(transfer_start_, PowerState::kTransfer);
    free_at_ = transfer_start_ + p_.transfer_time(bytes);
    in_service_ = true;
    return {a, start, free_at_};
  }

  /// Counters and state times over [0, t_end]; `t_end` must not precede
  /// the last completion.  Ends the run.
  ReferenceMetrics finish(double t_end) {
    using disk::PowerState;
    close_service();
    if (sleep_at() <= t_end) {
      enter_sleep();
      if (standby_at() <= t_end) at(standby_at(), PowerState::kStandby);
    }
    at(t_end, state_);
    return m_;
  }

  /// Landmarks a test may aim an arrival at.
  double transfer_start() const { return transfer_start_; }
  double free_at() const { return free_at_; }
  /// Sleep time of the current idle period, or of the next one if the
  /// disk is busy and no arrival comes before its queue drains.
  double sleep_at() const {
    if (!threshold_.has_value()) {
      return std::numeric_limits<double>::infinity();
    }
    return (in_service_ ? free_at_ : idle_since_) + *threshold_;
  }
  double standby_at() const { return sleep_at() + p_.spindown_s; }

private:
  /// Ledger step: the time since the last step goes to the current state.
  void at(double t, disk::PowerState next) {
    m_.state_time[static_cast<std::size_t>(state_)] += t - last_;
    last_ = t;
    state_ = next;
  }
  /// The queue drained at free_at_: a new idle period starts there.
  void close_service() {
    if (!in_service_) return;
    at(free_at_, disk::PowerState::kIdle);
    idle_since_ = free_at_;
    in_service_ = false;
  }
  void enter_sleep() {
    at(sleep_at(), disk::PowerState::kSpinningDown);
    ++m_.spin_downs;
  }

  disk::DiskParams p_;
  std::optional<double> threshold_;
  disk::PowerState state_ = disk::PowerState::kIdle;
  double last_ = 0.0;
  double idle_since_ = 0.0;
  double free_at_ = 0.0;
  double transfer_start_ = 0.0;
  bool in_service_ = false;
  ReferenceMetrics m_;
};

} // namespace spindown::test_support
