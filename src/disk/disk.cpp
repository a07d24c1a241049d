#include "disk/disk.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>
#include <string>

namespace spindown::disk {

namespace {
constexpr double kNever = std::numeric_limits<double>::infinity();
} // namespace

util::Joules DiskMetrics::energy(const DiskParams& p) const {
  util::Joules total = 0.0;
  for (std::size_t i = 0; i < kPowerStateCount; ++i) {
    total += state_time[i] * power_of(static_cast<PowerState>(i), p);
  }
  return total;
}

Disk::Disk(std::uint32_t id, DiskParams params,
           std::unique_ptr<SpinDownPolicy> policy, util::Rng rng,
           IoQueue queue)
    : id_(id),
      params_(std::move(params)),
      policy_(std::move(policy)),
      rng_(rng),
      queue_(std::move(queue)),
      ledger_(PowerState::kIdle, 0.0) {
  assert(policy_ != nullptr);
  capacity_blocks_ = std::max<double>(
      1.0, static_cast<double>(util::blocks_of(params_.capacity)));
  arm_idle_timer(0.0);
}

void Disk::enter(PowerState next, double t) {
  assert(can_transition(state_, next));
  if (trace_ != nullptr && trace_->wants(obs::Kind::kPower)) {
    trace_->emit(obs::Kind::kPower, static_cast<std::uint8_t>(next), t, id_,
                 0, static_cast<double>(static_cast<unsigned>(state_)));
  }
  ledger_.transition(t, next);
  state_ = next;
}

void Disk::settle(double t) {
  while (due_ <= t && due_ < kNever) {
    clock_ = due_;
    apply_due();
  }
  clock_ = std::max(clock_, t);
}

double Disk::settle_all() {
  settle(kNever);
  return ledger_.last_change();
}

void Disk::apply_due() {
  const double t = due_;
  switch (state_) {
    case PowerState::kPositioning:
      enter(PowerState::kTransfer, t);
      trace_transfer(t);
      due_ = t + params_.transfer_time(batch_[batch_pos_].bytes);
      break;
    case PowerState::kTransfer:
      finish_transfer(t);
      break;
    case PowerState::kIdle:
      if (trace_ != nullptr && trace_->wants(obs::Kind::kPolicy)) {
        trace_->emit(obs::Kind::kPolicy, obs::kPolicyThresholdFired, t, id_,
                     0, t - idle_since_);
      }
      begin_spin_down(t);
      break;
    case PowerState::kSpinningDown:
      enter(PowerState::kStandby, t);
      due_ = kNever;
      // Requests that arrived during the spin-down wake the disk at once.
      if (!queue_.empty()) {
        ++events_;
        begin_spin_up(t);
      }
      break;
    case PowerState::kSpinningUp:
      ++events_;
      // A spin-up starts only with requests queued (an arrival in standby,
      // or standby entry after a spin-down that requests arrived during),
      // and nothing is served while it runs.
      assert(!queue_.empty());
      start_service(t);
      break;
    case PowerState::kStandby:
      // Standby waits for an arrival: its due time is always kNever, so
      // settle() never applies it.
      assert(false && "standby has no due transition");
      break;
  }
}

void Disk::submit(double t, std::uint64_t request_id, util::Bytes bytes,
                  std::uint64_t lba, bool background) {
  if (!(t >= clock_)) {
    throw std::invalid_argument{
        "Disk::submit: arrival at " + util::format_roundtrip(t) +
        " s is earlier than disk " + std::to_string(id_) +
        "'s clock at " + util::format_roundtrip(clock_) + " s"};
  }
  settle(t);
  IoJob job;
  job.request_id = request_id;
  job.bytes = bytes;
  job.arrival = t;
  job.lba = lba;
  job.blocks = util::blocks_of(bytes);
  job.seq = submit_seq_++;
  job.background = background;
  if (background) ++bg_in_queue_;
  queue_.push(job);
  if (trace_ != nullptr && trace_->wants(obs::Kind::kSpan)) {
    trace_->emit(obs::Kind::kSpan, obs::kSpanSubmit, t, id_, request_id,
                 static_cast<double>(bytes));
    trace_->emit(obs::Kind::kSpan, obs::kSpanEnqueue, t, id_, request_id,
                 static_cast<double>(queue_.size()));
  }
  if (idle_period_open_) {
    // First arrival since the disk went idle: the idle period ends now,
    // whatever power state the policy steered it through.  Score it before
    // any state change so an adaptive policy sees period k before deciding
    // period k+1.
    const double duration = t - idle_since_;
    idle_periods_.add(duration);
    policy_->observe_idle(duration, idle_spun_down_);
    idle_period_open_ = false;
  }
  switch (state_) {
    case PowerState::kIdle:
      start_service(t);
      break;
    case PowerState::kStandby:
      begin_spin_up(t);
      break;
    case PowerState::kSpinningDown:
    case PowerState::kSpinningUp:
    case PowerState::kPositioning:
    case PowerState::kTransfer:
      // Queued; picked up when the current phase ends (a spin-down parks
      // and spins straight back up).
      break;
  }
}

double Disk::positioning_time(std::uint64_t target_lba) const {
  if (!queue_.geometry_aware) return params_.position_time();
  const double travel =
      static_cast<double>(target_lba > head_lba_ ? target_lba - head_lba_
                                                 : head_lba_ - target_lba);
  const double distance = std::min(1.0, travel / capacity_blocks_);
  return params_.seek_time(distance) + params_.avg_rotation_s;
}

void Disk::start_service(double t) {
  assert(!queue_.empty());
  assert(state_ == PowerState::kIdle || state_ == PowerState::kTransfer ||
         state_ == PowerState::kSpinningUp);
  batch_.clear();
  batch_pos_ = 0;
  queue_.pop_batch(head_lba_, batch_);
  assert(!batch_.empty());
  if (bg_in_queue_ > 0) {
    for (const IoJob& job : batch_) {
      if (job.background) {
        --bg_in_queue_;
        ++bg_in_batch_;
      }
    }
  }
  service_start_ = t;
  ++positionings_;
  if (trace_ != nullptr && trace_->wants(obs::Kind::kSpan)) {
    for (const IoJob& job : batch_) {
      trace_->emit(obs::Kind::kSpan, obs::kSpanPosition, t, id_,
                   job.request_id, static_cast<double>(batch_.size()));
    }
  }
  enter(PowerState::kPositioning, t);
  due_ = t + positioning_time(batch_.front().lba);
}

void Disk::trace_transfer(double t) {
  if (trace_ != nullptr && trace_->wants(obs::Kind::kSpan)) {
    trace_->emit(obs::Kind::kSpan, obs::kSpanTransfer, t, id_,
                 batch_[batch_pos_].request_id,
                 static_cast<double>(batch_[batch_pos_].bytes));
  }
}

void Disk::finish_transfer(double t) {
  ++events_;
  const IoJob& job = batch_[batch_pos_];
  if (job.background) {
    ++destage_served_;
    --bg_in_batch_;
  } else {
    ++served_;
    bytes_served_ += job.bytes;
  }
  head_lba_ = job.lba + job.blocks;
  if (trace_ != nullptr && trace_->wants(obs::Kind::kSpan)) {
    trace_->emit(obs::Kind::kSpan, obs::kSpanComplete, t, id_,
                 job.request_id, t - job.arrival,
                 service_start_ - job.arrival);
  }
  // Background work carries no response-time signal: the policy and the
  // response books count foreground traffic only.
  if (!job.background) {
    const double response = t - job.arrival;
    policy_->observe_completion(response);
    response_.add(response);
    if (response_hist_ != nullptr) response_hist_->add(response);
  }
  ++batch_pos_;
  if (batch_pos_ < batch_.size()) {
    // Coalesced batch: the next extent is (near-)adjacent, so the head
    // streams straight into it — no further positioning phase is billed.
    trace_transfer(t);
    due_ = t + params_.transfer_time(batch_[batch_pos_].bytes);
  } else if (!queue_.empty()) {
    start_service(t);
  } else {
    go_idle(t);
  }
}

void Disk::go_idle(double t) {
  enter(PowerState::kIdle, t);
  idle_since_ = t;
  idle_period_open_ = true;
  idle_spun_down_ = false;
  arm_idle_timer(t);
}

void Disk::arm_idle_timer(double t) {
  assert(state_ == PowerState::kIdle);
  due_ = kNever;
  const auto timeout = policy_->idle_timeout(rng_);
  const bool tracing =
      trace_ != nullptr && trace_->wants(obs::Kind::kPolicy);
  if (!timeout.has_value()) {
    if (tracing) {
      trace_->emit(obs::Kind::kPolicy, obs::kPolicyStayIdle, t, id_, 0, 0.0,
                   policy_->trace_estimate());
    }
    return; // stay idle forever (never-spin-down)
  }
  if (*timeout <= 0.0) {
    if (tracing) {
      trace_->emit(obs::Kind::kPolicy, obs::kPolicySpinDownNow, t, id_, 0,
                   *timeout, policy_->trace_estimate());
    }
    begin_spin_down(t);
    return;
  }
  if (tracing) {
    trace_->emit(obs::Kind::kPolicy, obs::kPolicyTimerArmed, t, id_, 0,
                 *timeout, policy_->trace_estimate());
  }
  // No timer: settle() starts the spin-down once the clock reaches it.
  due_ = t + *timeout;
}

void Disk::begin_spin_down(double t) {
  assert(state_ == PowerState::kIdle);
  idle_spun_down_ = true;
  ++spin_downs_;
  enter(PowerState::kSpinningDown, t);
  due_ = t + params_.spindown_s;
}

void Disk::begin_spin_up(double t) {
  assert(state_ == PowerState::kStandby);
  ++spin_ups_;
  enter(PowerState::kSpinningUp, t);
  due_ = t + params_.spinup_s;
}

DiskMetrics Disk::metrics(double now) {
  settle(now);
  auto ledger = ledger_; // copy, then flush the copy to `now`
  ledger.flush(now);
  DiskMetrics m;
  m.disk_id = id_;
  for (std::size_t i = 0; i < kPowerStateCount; ++i) {
    m.state_time[i] = ledger.time_in(static_cast<PowerState>(i));
  }
  m.energy_j = m.energy(params_);
  // Per-disk share of the always-on normalizer: idle draw for the whole
  // window plus the service premium (seek/active over idle) for this disk's
  // busy time.  Farm totals are the disk-id-order sum of these.
  m.always_on_j = now * params_.idle_w +
                  m.time_in(PowerState::kPositioning) *
                      (params_.seek_w - params_.idle_w) +
                  m.time_in(PowerState::kTransfer) *
                      (params_.active_w - params_.idle_w);
  m.spin_ups = spin_ups_;
  m.spin_downs = spin_downs_;
  m.served = served_;
  m.bytes_served = bytes_served_;
  m.queued = queue_.size() - bg_in_queue_;
  m.in_service = batch_.size() - batch_pos_ - bg_in_batch_;
  m.destage_served = destage_served_;
  m.destage_pending = bg_in_queue_ + bg_in_batch_;
  m.positionings = positionings_;
  m.idle_periods = idle_periods_;
  m.response = response_;
  return m;
}

} // namespace spindown::disk
