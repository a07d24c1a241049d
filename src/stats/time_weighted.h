// time_weighted.h — time-in-state accounting.
//
// Power is integrated as sum(P(state) * time_in_state); this accumulator
// tracks how long a subject (a disk) spends in each discrete state.  State
// changes are reported with the simulation clock; durations are attributed to
// the *previous* state, which is exactly the semantics of a state machine
// transition trace.
#pragma once

#include <array>
#include <cassert>
#include <cstddef>

namespace spindown::stats {

/// E: scoped enum whose underlying values are 0..N-1.
template <typename E, std::size_t N>
class TimeWeighted {
public:
  explicit TimeWeighted(E initial, double t0 = 0.0)
      : current_(initial), last_change_(t0), start_(t0) {}

  /// Record a transition at time `now`.  `now` must be monotone.
  void transition(double now, E next) {
    assert(now >= last_change_);
    times_[index(current_)] += now - last_change_;
    current_ = next;
    last_change_ = now;
  }

  /// Attribute the open interval [last_change, now) without changing state.
  /// Call before reading totals at the end of a run.
  void flush(double now) {
    assert(now >= last_change_);
    times_[index(current_)] += now - last_change_;
    last_change_ = now;
  }

  E current() const { return current_; }
  double last_change() const { return last_change_; }
  double time_in(E state) const { return times_[index(state)]; }
  double elapsed() const { return last_change_ - start_; }

  double total() const {
    double t = 0.0;
    for (double v : times_) t += v;
    return t;
  }

private:
  static std::size_t index(E e) {
    const auto i = static_cast<std::size_t>(e);
    assert(i < N);
    return i;
  }

  std::array<double, N> times_{};
  E current_;
  double last_change_;
  double start_;
};

} // namespace spindown::stats
