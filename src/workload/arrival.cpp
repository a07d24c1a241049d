#include "workload/arrival.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace spindown::workload {

PoissonArrivals::PoissonArrivals(double rate) : rate_(rate) {
  if (rate <= 0.0) {
    throw std::invalid_argument{"PoissonArrivals: rate must be > 0"};
  }
}

double PoissonArrivals::next_arrival(util::Rng& rng) {
  now_ += rng.exponential(rate_);
  return now_;
}

PiecewiseRateArrivals::PiecewiseRateArrivals(std::vector<RateSegment> segments,
                                             double period)
    : segments_(std::move(segments)), period_(period) {
  if (segments_.empty()) {
    throw std::invalid_argument{"PiecewiseRateArrivals: no segments"};
  }
  if (segments_.front().start != 0.0) {
    throw std::invalid_argument{
        "PiecewiseRateArrivals: first segment must start at 0"};
  }
  for (std::size_t i = 0; i < segments_.size(); ++i) {
    if (segments_[i].rate < 0.0) {
      throw std::invalid_argument{"PiecewiseRateArrivals: negative rate"};
    }
    if (i > 0 && segments_[i].start <= segments_[i - 1].start) {
      throw std::invalid_argument{
          "PiecewiseRateArrivals: segment starts must be increasing"};
    }
    peak_ = std::max(peak_, segments_[i].rate);
  }
  if (peak_ <= 0.0) {
    throw std::invalid_argument{
        "PiecewiseRateArrivals: at least one segment rate must be > 0"};
  }
  if (period_ < 0.0) {
    throw std::invalid_argument{"PiecewiseRateArrivals: negative period"};
  }
  if (period_ > 0.0 && segments_.back().start >= period_) {
    throw std::invalid_argument{
        "PiecewiseRateArrivals: segment starts must lie inside the period"};
  }
  if (period_ == 0.0 && segments_.back().rate <= 0.0) {
    // The last rate holds forever: if it is zero the thinning loop would
    // reject candidates unboundedly once the clock passes it.
    throw std::invalid_argument{
        "PiecewiseRateArrivals: trailing zero rate without a period"};
  }
}

double PiecewiseRateArrivals::phase(double t) const {
  if (period_ > 0.0) {
    t = std::fmod(t, period_);
    if (t < 0.0) t += period_;
  }
  return t;
}

std::size_t PiecewiseRateArrivals::segment_of(double tm) const {
  // Few segments in practice: linear scan from the back.
  for (std::size_t i = segments_.size(); i-- > 0;) {
    if (tm >= segments_[i].start) return i;
  }
  return 0;
}

double PiecewiseRateArrivals::rate_at(double t) const {
  return segments_[segment_of(phase(t))].rate;
}

double PiecewiseRateArrivals::rate_forward(double t) {
  if (t <= cursor_last_) return cursor_rate_;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double tm = phase(t);
  const std::size_t i = segment_of(tm);
  cursor_rate_ = segments_[i].rate;
  // The segment ends at the next start, at the period's end, or never.
  const double end = i + 1 < segments_.size() ? segments_[i + 1].start
                     : period_ > 0.0          ? period_
                                              : kInf;
  // In absolute time the segment's span ends at base + end, rounded.  Step
  // its last time down until that time has t's period start and segment.
  // fmod is exact, so within one period the phase s - base rises with s,
  // and every time between t and the last one is in segment i too.  (Two
  // period starts round to the same base only when the period is below the
  // spacing of doubles at t, where thinning cannot advance anyway.)
  const double base = t - tm;
  double last = std::nextafter(base + end, -kInf);
  while (last > t) {
    const double lm = phase(last);
    if (last - lm == base && segment_of(lm) == i) break;
    last = std::nextafter(last, -kInf);
  }
  cursor_last_ = std::max(last, t);
  return cursor_rate_;
}

double PiecewiseRateArrivals::next_arrival(util::Rng& rng) {
  // Lewis–Shedler thinning: homogeneous candidates at the peak rate,
  // accepted with probability rate(t)/peak.
  for (;;) {
    now_ += rng.exponential(peak_);
    const double r = rate_forward(now_);
    if (r >= peak_ || rng.uniform01() * peak_ < r) return now_;
  }
}

MmppArrivals::MmppArrivals(MmppParams params) : params_(params) {
  if (params_.rate[0] < 0.0 || params_.rate[1] < 0.0 ||
      (params_.rate[0] <= 0.0 && params_.rate[1] <= 0.0)) {
    throw std::invalid_argument{
        "MmppArrivals: rates must be >= 0 with at least one > 0"};
  }
  if (params_.mean_dwell[0] <= 0.0 || params_.mean_dwell[1] <= 0.0) {
    throw std::invalid_argument{"MmppArrivals: dwell times must be > 0"};
  }
}

double MmppArrivals::next_arrival(util::Rng& rng) {
  if (!started_) {
    started_ = true;
    switch_at_ = now_ + rng.exponential(1.0 / params_.mean_dwell[state_]);
  }
  for (;;) {
    const double rate = params_.rate[static_cast<std::size_t>(state_)];
    // Exponential races are memoryless, so the losing candidate can be
    // discarded and redrawn after the state switch.
    const double candidate =
        rate > 0.0 ? now_ + rng.exponential(rate)
                   : std::numeric_limits<double>::infinity();
    if (candidate < switch_at_) {
      now_ = candidate;
      return now_;
    }
    now_ = switch_at_;
    state_ ^= 1;
    ++switches_;
    switch_at_ = now_ + rng.exponential(1.0 / params_.mean_dwell[state_]);
  }
}

} // namespace spindown::workload
