// disk_edge_test.cpp — corner cases of the disk actor beyond the main suite.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "disk/disk.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "support/span_completions.h"
#include "util/units.h"

namespace spindown::disk {
namespace {

class DiskEdge : public ::testing::Test {
protected:
  DiskParams params_ = DiskParams::st3500630as();
  obs::TraceBuffer spans_{obs::kind_bit(obs::Kind::kSpan)};

  /// The disk traces its spans into spans_ unless a test attaches its own
  /// buffer.
  std::unique_ptr<Disk> make_disk(std::unique_ptr<SpinDownPolicy> policy) {
    auto d = std::make_unique<Disk>(3, params_, std::move(policy),
                                    util::Rng{5});
    d->set_trace(&spans_);
    return d;
  }

  std::vector<obs::TraceEvent> completions() const {
    return test_support::completions(spans_);
  }
};

TEST_F(DiskEdge, ZeroByteReadStillPaysPositioning) {
  auto d = make_disk(std::make_unique<NeverSpinDownPolicy>());
  d->submit(0.0, 0, 0);
  d->settle_all();
  const auto done = completions();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_NEAR(done[0].value, params_.position_time(), 1e-12);
}

TEST_F(DiskEdge, ArrivalDuringPositioningQueues) {
  auto d = make_disk(std::make_unique<NeverSpinDownPolicy>());
  const util::Bytes size = util::mb(72.0);
  d->submit(0.0, 0, size);
  // Mid-positioning (positioning lasts 12.66 ms).
  d->submit(0.005, 1, size);
  d->settle_all();
  const auto done = completions();
  ASSERT_EQ(done.size(), 2u);
  const double svc = params_.service_time(size);
  EXPECT_NEAR(done[1].t, 2 * svc, 1e-9);
}

TEST_F(DiskEdge, DiskIdCarriedInCompletions) {
  auto d = make_disk(std::make_unique<NeverSpinDownPolicy>());
  d->submit(0.0, 77, util::mb(1.0));
  const double end = d->settle_all();
  const auto done = completions();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].track, 3u);
  EXPECT_EQ(done[0].id, 77u);
  EXPECT_EQ(d->metrics(end).bytes_served, util::mb(1.0));
}

TEST_F(DiskEdge, BackToBackArrivalAtExactCompletionInstant) {
  // A request arriving at the instant of a completion is served at once:
  // the completion resolves first (tie rule) and the arrival finds the
  // disk idle.
  auto d = make_disk(std::make_unique<FixedThresholdPolicy>(30.0));
  const util::Bytes size = util::mb(72.0);
  const double svc = params_.service_time(size);
  d->submit(0.0, 0, size);
  d->submit(svc, 1, size);
  const double parked = 2 * svc + 30.0 + params_.spindown_s;
  d->settle(parked);
  const auto done = completions();
  ASSERT_EQ(done.size(), 2u);
  // No idle gap in between: second service begins immediately.
  EXPECT_NEAR(done[1].t, 2 * svc, 1e-9);
  EXPECT_EQ(d->metrics(parked).spin_downs, 1u); // only the final one
}

TEST_F(DiskEdge, MetricsEnergyMatchesStateTimes) {
  auto d = make_disk(std::make_unique<FixedThresholdPolicy>(5.0));
  d->submit(0.0, 0, util::mb(144.0));
  d->submit(200.0, 1, util::mb(36.0));
  const double end = d->settle_all();
  const auto m = d->metrics(end);
  util::Joules manual = 0.0;
  for (std::size_t i = 0; i < kPowerStateCount; ++i) {
    manual += m.state_time[i] * power_of(static_cast<PowerState>(i), params_);
  }
  EXPECT_NEAR(m.energy(params_), manual, 1e-12);
  // Total state time covers the whole run.
  double total = 0.0;
  for (const auto t : m.state_time) total += t;
  EXPECT_NEAR(total, end, 1e-9);
}

TEST_F(DiskEdge, ManyRapidCyclesRemainConsistent) {
  // Stress: requests spaced just past the (short) threshold force repeated
  // full standby cycles; counters and ledger must stay coherent.
  auto d = make_disk(std::make_unique<FixedThresholdPolicy>(1.0));
  const util::Bytes size = util::mb(7.2); // 0.1 s transfer
  // One full cycle: spin-up (15) + service (~0.11) + idle (1) + spin-down
  // (10) ~ 26.1 s; space arrivals past it so each lands in standby.
  const double spacing = 30.0;
  for (int i = 0; i < 50; ++i) d->submit(spacing * i, i, size);
  const auto m = d->metrics(spacing * 49 + params_.spinup_s +
                            params_.service_time(size) + 1.0 +
                            params_.spindown_s);
  EXPECT_EQ(m.served, 50u);
  const auto done = completions();
  EXPECT_EQ(done.size(), 50u);
  EXPECT_EQ(m.spin_downs, 50u);
  EXPECT_EQ(m.spin_ups, 49u); // first request found it idle
  // Response of every cycled request includes the full spin-up.
  for (std::size_t i = 1; i < done.size(); ++i) {
    EXPECT_GE(done[i].value, params_.spinup_s);
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
  d->submit(0.0, 0, size);
  const double transfer_start = 0.0 + params_.position_time();
  d->submit(transfer_start, 1, size);
  const std::vector<Step> want = {
      {obs::Kind::kPower, code_of(PowerState::kTransfer), 0},
      {obs::Kind::kSpan, obs::kSpanTransfer, 0},
      {obs::Kind::kSpan, obs::kSpanSubmit, 1},
      {obs::Kind::kSpan, obs::kSpanEnqueue, 1}};
  EXPECT_EQ(steps_at(trace, transfer_start), want);
  const auto m = d->metrics(d->settle_all());
  const auto done = test_support::completions(trace);
  ASSERT_EQ(done.size(), 2u);
  // Request 1 waits from its arrival until request 0 completes.
  EXPECT_EQ(done[1].aux, done[0].t - transfer_start);
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
  d->submit(standby, 0, size);
  const std::vector<Step> want = {
      {obs::Kind::kPower, code_of(PowerState::kStandby), 0},
      {obs::Kind::kSpan, obs::kSpanSubmit, 0},
      {obs::Kind::kSpan, obs::kSpanEnqueue, 0},
      {obs::Kind::kPower, code_of(PowerState::kSpinningUp), 0}};
  EXPECT_EQ(steps_at(trace, standby), want);
  // After the service, before the disk's next sleep (5 s later).
  const auto m = d->metrics(standby + params_.spinup_s +
                            params_.service_time(size) + 1.0);
  const auto done = test_support::completions(trace);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].aux, (standby + params_.spinup_s) - standby);
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
  d->submit(8.0, 0, size);
  EXPECT_EQ(d->state(standby), PowerState::kSpinningUp);
  d->submit(standby, 1, size);
  const auto m = d->metrics(d->settle_all());
  const auto done = completions();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0].aux, (standby + params_.spinup_s) - 8.0);
  EXPECT_EQ(done[1].aux, done[0].t - standby);
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
  obs::MetricsSampler sampler(transfer_start, 1.0, &trace);
  sampler.add_disk(d.get());
  d->submit(0.0, 0, util::mb(72.0));
  sampler.sample_until(transfer_start);
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
  obs::MetricsSampler sampler(3.0, 100.0, &trace);
  sampler.add_disk(d.get());
  sampler.sample_until(3.0);
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
  const auto m = d->metrics(3.0);
  EXPECT_EQ(m.spin_downs, 1u);
  EXPECT_EQ(m.time_in(PowerState::kIdle), 3.0);
  EXPECT_EQ(m.time_in(PowerState::kSpinningDown), 0.0);
  EXPECT_EQ(m.time_in(PowerState::kStandby), 0.0);
}

TEST_F(DiskEdge, SamplerTickAtCompletionReadsTheNextState) {
  // The service starts at 1.0, after tick 1, and completes exactly at tick
  // 2: the gauge reads the disk after the completion, idle with one
  // request served.
  const util::Bytes size = util::mb(36.0); // 0.5 s transfer
  double completion = 0.0;
  {
    auto twin = make_disk(std::make_unique<NeverSpinDownPolicy>());
    twin->submit(1.0, 0, size);
    twin->settle_all();
    const auto done = completions();
    ASSERT_EQ(done.size(), 1u);
    completion = done[0].t;
  }
  auto d = make_disk(std::make_unique<NeverSpinDownPolicy>());
  obs::TraceBuffer trace(obs::kind_bit(obs::Kind::kMetric) |
                         obs::kind_bit(obs::Kind::kPower));
  d->set_trace(&trace);
  obs::MetricsSampler sampler(completion / 2, 100.0, &trace);
  sampler.add_disk(d.get());
  ASSERT_LT(completion / 2, 1.0);
  sampler.sample_until(1.0);
  d->submit(1.0, 1, size);
  sampler.sample_until(completion);
  std::vector<const obs::TraceEvent*> gauges;
  for (const auto& e : trace.events()) {
    if (e.kind == obs::Kind::kMetric && e.code == obs::kMetricPowerState) {
      gauges.push_back(&e);
    }
  }
  ASSERT_EQ(gauges.size(), 2u);
  EXPECT_EQ(gauges[1]->t, completion);
  EXPECT_EQ(gauges[1]->value, static_cast<double>(PowerState::kIdle));
  EXPECT_EQ(gauges[1]->aux, 1.0); // served total
  // The transition into idle precedes the gauge on the disk's track.
  const std::vector<Step> want = {
      {obs::Kind::kPower, code_of(PowerState::kIdle), 0},
      {obs::Kind::kMetric, obs::kMetricQueueDepth, 0},
      {obs::Kind::kMetric, obs::kMetricPowerState, 0}};
  EXPECT_EQ(steps_at(trace, completion), want);
}

TEST_F(DiskEdge, ArrivalAtSpinUpEndQueuesBehindTheWaitingRequest) {
  // fixed:0 parks the disk at 10.  A read at 20 spins it up until exactly
  // 35; a second read at 35 finds the first one already positioning.
  auto d = make_disk(std::make_unique<FixedThresholdPolicy>(0.0));
  obs::TraceBuffer trace(obs::kind_bit(obs::Kind::kPower) |
                         obs::kind_bit(obs::Kind::kSpan));
  d->set_trace(&trace);
  const util::Bytes size = util::mb(72.0);
  const double spun_up = 20.0 + params_.spinup_s;
  d->submit(20.0, 0, size);
  d->submit(spun_up, 1, size);
  const std::vector<Step> want = {
      {obs::Kind::kSpan, obs::kSpanPosition, 0},
      {obs::Kind::kPower, code_of(PowerState::kPositioning), 0},
      {obs::Kind::kSpan, obs::kSpanSubmit, 1},
      {obs::Kind::kSpan, obs::kSpanEnqueue, 1}};
  EXPECT_EQ(steps_at(trace, spun_up), want);
  const auto m = d->metrics(d->settle_all());
  const auto done = test_support::completions(trace);
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0].aux, spun_up - 20.0);
  EXPECT_EQ(done[1].aux, done[0].t - spun_up);
  EXPECT_EQ(m.spin_ups, 1u);
  EXPECT_EQ(m.positionings, 2u);
  EXPECT_EQ(d->events(), 2u + 1u); // two completions, one spin-up end
}

TEST_F(DiskEdge, ArrivalAtBatchMemberCompletionWaitsForTheNextBatch) {
  // Three adjacent extents queue behind a warm read and are served as one
  // batch; a read for the next adjacent extent arrives exactly as the
  // batch's first member completes.  The running batch is fixed, so the
  // read is served as a batch of its own once the trio is done, and no
  // earlier time moves.
  const util::Bytes size = util::mb(72.0);
  const std::uint64_t blocks = util::blocks_of(size);
  const auto run = [&](bool with_arrival, double arrival) {
    spans_.events().clear();
    auto d = std::make_unique<Disk>(3, params_,
                                    std::make_unique<NeverSpinDownPolicy>(),
                                    util::Rng{5},
                                    IoQueue{Discipline::kBatch, 16, 64});
    d->set_trace(&spans_);
    d->submit(0.0, 9, size, 10'000'000);
    for (std::uint64_t i = 0; i < 3; ++i) d->submit(0.5, i, size, i * blocks);
    if (with_arrival) d->submit(arrival, 3, size, 3 * blocks);
    return d->metrics(d->settle_all());
  };
  EXPECT_EQ(run(false, 0.0).positionings, 2u);
  const auto before = completions();
  ASSERT_EQ(before.size(), 4u);
  EXPECT_EQ(before[1].aux, before[3].aux); // one batch, one arrival time
  const double arrival = before[1].t;
  const auto m = run(true, arrival);
  const auto done = completions();
  ASSERT_EQ(done.size(), 5u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(done[i].id, before[i].id);
    EXPECT_EQ(done[i].t, before[i].t);
  }
  EXPECT_EQ(done[4].id, 3u);
  EXPECT_EQ(done[4].aux, before[3].t - arrival);
  EXPECT_EQ(m.positionings, 3u);
}

TEST_F(DiskEdge, SubmitBeforeTheDisksClockThrows) {
  auto d = make_disk(std::make_unique<NeverSpinDownPolicy>());
  d->submit(20.0, 0, util::mb(1.0));
  EXPECT_THROW(d->submit(19.0, 1, util::mb(1.0)), std::invalid_argument);
  d->settle(30.0);
  EXPECT_THROW(d->submit(25.0, 1, util::mb(1.0)), std::invalid_argument);
  EXPECT_THROW(d->submit(std::nan(""), 1, util::mb(1.0)),
               std::invalid_argument);
  d->submit(30.0, 1, util::mb(1.0)); // at the clock is fine
  d->settle_all();
  EXPECT_EQ(completions().size(), 2u);
}

} // namespace
} // namespace spindown::disk
