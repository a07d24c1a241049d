// disk_edge_test.cpp — corner cases of the disk actor beyond the main suite.
#include <gtest/gtest.h>

#include "disk/disk.h"
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
  sim_.run();
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
  sim_.run();
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

} // namespace
} // namespace spindown::disk
