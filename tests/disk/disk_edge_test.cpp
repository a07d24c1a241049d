// disk_edge_test.cpp — corner cases of the disk actor beyond the main suite.
#include <gtest/gtest.h>

#include "disk/disk.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "util/units.h"

namespace spindown::disk {
namespace {

class DiskEdge : public ::testing::Test {
protected:
  des::Simulation sim_;
  DiskParams params_ = DiskParams::st3500630as();
  std::vector<Completion> completions_;

  std::unique_ptr<Disk> make_disk(std::unique_ptr<SpinDownPolicy> policy) {
    auto d = std::make_unique<Disk>(sim_, 3, params_, std::move(policy),
                                    util::Rng{5});
    d->set_completion_callback(
        [this](const Completion& c) { completions_.push_back(c); });
    return d;
  }
};

TEST_F(DiskEdge, ZeroByteReadStillPaysPositioning) {
  auto d = make_disk(std::make_unique<NeverSpinDownPolicy>());
  sim_.schedule_at(0.0, [&] { d->submit(0, 0); });
  sim_.run();
  ASSERT_EQ(completions_.size(), 1u);
  EXPECT_NEAR(completions_[0].response_time(), params_.position_time(), 1e-12);
}

TEST_F(DiskEdge, ArrivalDuringPositioningQueues) {
  auto d = make_disk(std::make_unique<NeverSpinDownPolicy>());
  const util::Bytes size = util::mb(72.0);
  sim_.schedule_at(0.0, [&] { d->submit(0, size); });
  // Mid-positioning (positioning lasts 12.66 ms).
  sim_.schedule_at(0.005, [&] { d->submit(1, size); });
  sim_.run();
  ASSERT_EQ(completions_.size(), 2u);
  const double svc = params_.service_time(size);
  EXPECT_NEAR(completions_[1].completion, 2 * svc, 1e-9);
}

TEST_F(DiskEdge, DiskIdCarriedInCompletions) {
  auto d = make_disk(std::make_unique<NeverSpinDownPolicy>());
  sim_.schedule_at(0.0, [&] { d->submit(77, util::mb(1.0)); });
  sim_.run();
  ASSERT_EQ(completions_.size(), 1u);
  EXPECT_EQ(completions_[0].disk_id, 3u);
  EXPECT_EQ(completions_[0].request_id, 77u);
  EXPECT_EQ(completions_[0].bytes, util::mb(1.0));
}

TEST_F(DiskEdge, BackToBackArrivalAtExactCompletionInstant) {
  // A request arriving in the same event round as a completion must be
  // served (order: completion event first — FIFO by schedule time).
  auto d = make_disk(std::make_unique<FixedThresholdPolicy>(30.0));
  const util::Bytes size = util::mb(72.0);
  const double svc = params_.service_time(size);
  sim_.schedule_at(0.0, [&] { d->submit(0, size); });
  sim_.schedule_at(svc, [&] { d->submit(1, size); });
  sim_.run_until(2 * svc + 30.0 + params_.spindown_s);
  ASSERT_EQ(completions_.size(), 2u);
  // No idle gap in between: second service begins immediately.
  EXPECT_NEAR(completions_[1].completion, 2 * svc, 1e-9);
  EXPECT_EQ(d->metrics(sim_.now()).spin_downs, 1u); // only the final one
}

TEST_F(DiskEdge, MetricsEnergyMatchesStateTimes) {
  auto d = make_disk(std::make_unique<FixedThresholdPolicy>(5.0));
  sim_.schedule_at(0.0, [&] { d->submit(0, util::mb(144.0)); });
  sim_.schedule_at(200.0, [&] { d->submit(1, util::mb(36.0)); });
  sim_.run();
  const auto m = d->metrics(sim_.now());
  util::Joules manual = 0.0;
  for (std::size_t i = 0; i < kPowerStateCount; ++i) {
    manual += m.state_time[i] * power_of(static_cast<PowerState>(i), params_);
  }
  EXPECT_NEAR(m.energy(params_), manual, 1e-12);
  // Total state time covers the whole run.
  double total = 0.0;
  for (const auto t : m.state_time) total += t;
  EXPECT_NEAR(total, sim_.now(), 1e-9);
}

TEST_F(DiskEdge, ManyRapidCyclesRemainConsistent) {
  // Stress: requests spaced just past the (short) threshold force repeated
  // full standby cycles; counters and ledger must stay coherent.
  auto d = make_disk(std::make_unique<FixedThresholdPolicy>(1.0));
  const util::Bytes size = util::mb(7.2); // 0.1 s transfer
  // One full cycle: spin-up (15) + service (~0.11) + idle (1) + spin-down
  // (10) ~ 26.1 s; space arrivals past it so each lands in standby.
  const double spacing = 30.0;
  for (int i = 0; i < 50; ++i) {
    sim_.schedule_at(spacing * i, [&, i] { d->submit(i, size); });
  }
  sim_.run_until(spacing * 49 + params_.spinup_s +
                 params_.service_time(size) + 1.0 + params_.spindown_s);
  const auto m = d->metrics(sim_.now());
  EXPECT_EQ(m.served, 50u);
  EXPECT_EQ(completions_.size(), 50u);
  EXPECT_EQ(m.spin_downs, 50u);
  EXPECT_EQ(m.spin_ups, 49u); // first request found it idle
  // Response of every cycled request includes the full spin-up.
  for (std::size_t i = 1; i < completions_.size(); ++i) {
    EXPECT_GE(completions_[i].response_time(), params_.spinup_s);
  }
}

// Ties between a lazy transition (disk.h) and whatever else happens at
// the same instant: the transition always resolves first.

/// (kind, code, request id) of a trace event, for order checks.
struct Step {
  obs::Kind kind;
  std::uint8_t code;
  std::uint64_t id;
  friend bool operator==(const Step&, const Step&) = default;
};

std::vector<Step> steps_at(const obs::TraceBuffer& trace, double t) {
  std::vector<Step> out;
  for (const auto& e : trace.events()) {
    if (e.t == t) out.push_back({e.kind, e.code, e.id});
  }
  return out;
}

std::uint8_t code_of(PowerState s) { return static_cast<std::uint8_t>(s); }

TEST_F(DiskEdge, ArrivalAtTransferStartFindsTheDiskTransferring) {
  auto d = make_disk(std::make_unique<NeverSpinDownPolicy>());
  obs::TraceBuffer trace(obs::kind_bit(obs::Kind::kPower) |
                         obs::kind_bit(obs::Kind::kSpan));
  d->set_trace(&trace);
  const util::Bytes size = util::mb(72.0);
  d->submit(0, size);
  const double transfer_start = 0.0 + params_.position_time();
  sim_.run_until(transfer_start);
  d->submit(1, size);
  const std::vector<Step> want = {
      {obs::Kind::kPower, code_of(PowerState::kTransfer), 0},
      {obs::Kind::kSpan, obs::kSpanTransfer, 0},
      {obs::Kind::kSpan, obs::kSpanSubmit, 1},
      {obs::Kind::kSpan, obs::kSpanEnqueue, 1}};
  EXPECT_EQ(steps_at(trace, transfer_start), want);
  sim_.run();
  ASSERT_EQ(completions_.size(), 2u);
  EXPECT_EQ(completions_[1].service_start, completions_[0].completion);
  const auto m = d->metrics(sim_.now());
  EXPECT_EQ(m.positionings, 2u);
  EXPECT_NEAR(m.time_in(PowerState::kPositioning),
              2 * params_.position_time(), 1e-12);
}

TEST_F(DiskEdge, ArrivalAtStandbyTimeFindsTheDiskParked) {
  // fixed:5 from t = 0: the disk sleeps at 5 and parks at 15.  An arrival
  // at exactly 15 finds it in standby (zero residency) and spins it up.
  auto d = make_disk(std::make_unique<FixedThresholdPolicy>(5.0));
  obs::TraceBuffer trace(obs::kind_bit(obs::Kind::kPower) |
                         obs::kind_bit(obs::Kind::kSpan));
  d->set_trace(&trace);
  const util::Bytes size = util::mb(72.0);
  const double standby = 5.0 + params_.spindown_s;
  sim_.run_until(standby);
  d->submit(0, size);
  const std::vector<Step> want = {
      {obs::Kind::kPower, code_of(PowerState::kStandby), 0},
      {obs::Kind::kSpan, obs::kSpanSubmit, 0},
      {obs::Kind::kSpan, obs::kSpanEnqueue, 0},
      {obs::Kind::kPower, code_of(PowerState::kSpinningUp), 0}};
  EXPECT_EQ(steps_at(trace, standby), want);
  sim_.run();
  ASSERT_EQ(completions_.size(), 1u);
  EXPECT_EQ(completions_[0].service_start, standby + params_.spinup_s);
  const auto m = d->metrics(sim_.now());
  EXPECT_EQ(m.spin_downs, 1u);
  EXPECT_EQ(m.spin_ups, 1u);
  EXPECT_EQ(m.time_in(PowerState::kStandby), 0.0);
  EXPECT_EQ(m.time_in(PowerState::kSpinningDown), params_.spindown_s);
}

TEST_F(DiskEdge, ArrivalAtStandbyTimeAfterAWakingArrivalQueues) {
  // A read mid-spin-down books the disk's wake-up at the standby time; a
  // second read at exactly that time finds the spin-up already begun and
  // queues behind the first.
  auto d = make_disk(std::make_unique<FixedThresholdPolicy>(5.0));
  const util::Bytes size = util::mb(72.0);
  const double standby = 5.0 + params_.spindown_s;
  sim_.run_until(8.0);
  d->submit(0, size);
  sim_.run_until(standby);
  EXPECT_EQ(d->state(), PowerState::kSpinningUp);
  d->submit(1, size);
  sim_.run();
  ASSERT_EQ(completions_.size(), 2u);
  EXPECT_EQ(completions_[0].service_start, standby + params_.spinup_s);
  EXPECT_EQ(completions_[1].service_start, completions_[0].completion);
  const auto m = d->metrics(sim_.now());
  EXPECT_EQ(m.spin_ups, 1u);
  EXPECT_EQ(m.time_in(PowerState::kStandby), 0.0);
}

/// First power-state gauge the sampler emitted.
const obs::TraceEvent* first_power_gauge(const obs::TraceBuffer& trace) {
  for (const auto& e : trace.events()) {
    if (e.kind == obs::Kind::kMetric && e.code == obs::kMetricPowerState) {
      return &e;
    }
  }
  return nullptr;
}

TEST_F(DiskEdge, SamplerTickAtTransferStartReadsTransfer) {
  auto d = make_disk(std::make_unique<NeverSpinDownPolicy>());
  obs::TraceBuffer trace(obs::kind_bit(obs::Kind::kMetric) |
                         obs::kind_bit(obs::Kind::kPower));
  d->set_trace(&trace);
  const double transfer_start = 0.0 + params_.position_time();
  obs::MetricsSampler sampler(sim_, transfer_start, 1.0, &trace);
  sampler.add_disk(d.get());
  sampler.start();
  d->submit(0, util::mb(72.0));
  sim_.run_until(transfer_start);
  const obs::TraceEvent* gauge = first_power_gauge(trace);
  ASSERT_NE(gauge, nullptr);
  EXPECT_EQ(gauge->t, transfer_start);
  EXPECT_EQ(gauge->value, static_cast<double>(PowerState::kTransfer));
  // The transition itself precedes the gauge on the disk's track.
  EXPECT_EQ(trace.events().front().kind, obs::Kind::kPower);
  EXPECT_EQ(trace.events().front().code, code_of(PowerState::kPositioning));
  EXPECT_EQ(trace.events()[1].code, code_of(PowerState::kTransfer));
  EXPECT_EQ(trace.events()[1].t, transfer_start);
}

TEST_F(DiskEdge, SamplerTickAtSleepTimeReadsSpinningDown) {
  auto d = make_disk(std::make_unique<FixedThresholdPolicy>(3.0));
  obs::TraceBuffer trace(obs::kind_bit(obs::Kind::kMetric) |
                         obs::kind_bit(obs::Kind::kPower));
  d->set_trace(&trace);
  obs::MetricsSampler sampler(sim_, 3.0, 100.0, &trace);
  sampler.add_disk(d.get());
  sampler.start();
  sim_.run_until(3.0);
  const obs::TraceEvent* gauge = first_power_gauge(trace);
  ASSERT_NE(gauge, nullptr);
  EXPECT_EQ(gauge->t, 3.0);
  EXPECT_EQ(gauge->value, static_cast<double>(PowerState::kSpinningDown));
  EXPECT_EQ(trace.events().front().code, code_of(PowerState::kSpinningDown));
}

TEST_F(DiskEdge, HorizonAtSleepTimeCountsTheSpinDown) {
  // A snapshot exactly at the sleep time settles the spin-down into it:
  // counted, with zero spin-down and zero standby residency.
  auto d = make_disk(std::make_unique<FixedThresholdPolicy>(3.0));
  sim_.run_until(3.0);
  const auto m = d->metrics(3.0);
  EXPECT_EQ(m.spin_downs, 1u);
  EXPECT_EQ(m.time_in(PowerState::kIdle), 3.0);
  EXPECT_EQ(m.time_in(PowerState::kSpinningDown), 0.0);
  EXPECT_EQ(m.time_in(PowerState::kStandby), 0.0);
}

} // namespace
} // namespace spindown::disk
