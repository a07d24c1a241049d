#include "disk/disk.h"

#include <gtest/gtest.h>

#include <vector>

#include "obs/trace.h"
#include "stats/histogram.h"
#include "support/span_completions.h"
#include "util/units.h"

namespace spindown::disk {
namespace {

class DiskFixture : public ::testing::Test {
protected:
  DiskParams params_ = DiskParams::st3500630as();
  obs::TraceBuffer spans_{obs::kind_bit(obs::Kind::kSpan)};

  std::unique_ptr<Disk> make_disk(std::unique_ptr<SpinDownPolicy> policy) {
    auto d = std::make_unique<Disk>(0, params_, std::move(policy),
                                    util::Rng{1});
    d->set_trace(&spans_);
    return d;
  }

  std::vector<obs::TraceEvent> completions() const {
    return test_support::completions(spans_);
  }
};

TEST_F(DiskFixture, SingleRequestServiceTime) {
  auto d = make_disk(std::make_unique<NeverSpinDownPolicy>());
  const util::Bytes size = util::mb(72.0); // exactly 1 s transfer
  d->submit(0.0, 7, size);
  d->settle_all();
  const auto done = completions();
  ASSERT_EQ(done.size(), 1u);
  const auto& c = done[0];
  EXPECT_EQ(c.id, 7u);
  EXPECT_DOUBLE_EQ(c.t - c.value, 0.0); // arrival
  EXPECT_NEAR(c.t, params_.service_time(size), 1e-12);
  EXPECT_NEAR(c.value, 1.0 + params_.position_time(), 1e-12);
  EXPECT_DOUBLE_EQ(c.aux, 0.0);
}

TEST_F(DiskFixture, FcfsQueueing) {
  auto d = make_disk(std::make_unique<NeverSpinDownPolicy>());
  const util::Bytes size = util::mb(72.0);
  d->submit(0.0, 0, size);
  d->submit(0.0, 1, size);
  d->submit(0.0, 2, size);
  d->settle_all();
  const auto done = completions();
  ASSERT_EQ(done.size(), 3u);
  const double unit = params_.service_time(size);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(done[i].id, static_cast<std::uint64_t>(i));
    EXPECT_NEAR(done[i].t, unit * (i + 1), 1e-9);
  }
  // Queue wait grows linearly.
  EXPECT_NEAR(done[2].aux, 2 * unit, 1e-9);
}

TEST_F(DiskFixture, SpinsDownAfterThreshold) {
  auto d = make_disk(std::make_unique<FixedThresholdPolicy>(20.0));
  d->submit(0.0, 0, util::mb(72.0));
  const double standby =
      params_.service_time(util::mb(72.0)) + 20.0 + params_.spindown_s;
  EXPECT_EQ(d->state(standby), PowerState::kStandby);
  const auto m = d->metrics(standby);
  EXPECT_EQ(m.spin_downs, 1u);
  EXPECT_EQ(m.spin_ups, 0u);
  EXPECT_NEAR(m.time_in(PowerState::kIdle), 20.0, 1e-9);
  EXPECT_NEAR(m.time_in(PowerState::kSpinningDown), params_.spindown_s, 1e-9);
}

TEST_F(DiskFixture, RequestToStandbyDiskPaysSpinUp) {
  auto d = make_disk(std::make_unique<FixedThresholdPolicy>(20.0));
  const util::Bytes size = util::mb(72.0);
  d->submit(0.0, 0, size);
  const double t2 = 100.0; // disk is long in standby by then
  d->submit(t2, 1, size);
  const double end = d->settle_all();
  const auto done = completions();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_NEAR(done[1].value, params_.spinup_s + params_.service_time(size),
              1e-9);
  EXPECT_EQ(d->metrics(end).spin_ups, 1u);
}

TEST_F(DiskFixture, ArrivalDuringSpinDownWaitsForFullRoundTrip) {
  auto d = make_disk(std::make_unique<FixedThresholdPolicy>(20.0));
  const util::Bytes size = util::mb(72.0);
  d->submit(0.0, 0, size);
  const double svc = params_.service_time(size);
  const double mid_spin_down = svc + 20.0 + 5.0; // 5 s into the spin-down
  d->submit(mid_spin_down, 1, size);
  const double end = d->settle_all(); // parked again, with no residency
  const auto done = completions();
  ASSERT_EQ(done.size(), 2u);
  // Must wait the remaining 5 s of spin-down, then the 15 s spin-up.
  const double expected_response = 5.0 + params_.spinup_s + svc;
  EXPECT_NEAR(done[1].value, expected_response, 1e-9);
  const auto m = d->metrics(end);
  EXPECT_NEAR(m.time_in(PowerState::kStandby), 0.0, 1e-9);
}

TEST_F(DiskFixture, ArrivalDuringIdleCancelsSpinDown) {
  auto d = make_disk(std::make_unique<FixedThresholdPolicy>(20.0));
  const util::Bytes size = util::mb(72.0);
  d->submit(0.0, 0, size);
  const double svc = params_.service_time(size);
  d->submit(svc + 10.0, 1, size); // idle 10 < 20
  const auto m = d->metrics(svc + 10.0 + svc + 100.0);
  // Exactly one spin-down (after the second service), none between requests.
  EXPECT_EQ(m.spin_downs, 1u);
  EXPECT_EQ(m.spin_ups, 0u);
  const auto done = completions();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_NEAR(done[1].value, svc, 1e-9);
}

TEST_F(DiskFixture, NeverPolicyNeverSpinsDown) {
  auto d = make_disk(std::make_unique<NeverSpinDownPolicy>());
  d->submit(0.0, 0, util::mb(10.0));
  EXPECT_EQ(d->state(10'000.0), PowerState::kIdle);
  EXPECT_EQ(d->metrics(10'000.0).spin_downs, 0u);
}

TEST_F(DiskFixture, ImmediateSpinDownPolicy) {
  auto d = make_disk(std::make_unique<FixedThresholdPolicy>(0.0));
  // The disk starts idle: it should begin spinning down at t = 0.
  EXPECT_EQ(d->state(params_.spindown_s), PowerState::kStandby);
  EXPECT_EQ(d->metrics(params_.spindown_s).spin_downs, 1u);
}

TEST_F(DiskFixture, EnergyIntegrationMatchesHandComputation) {
  auto d = make_disk(std::make_unique<FixedThresholdPolicy>(30.0));
  const util::Bytes size = util::mb(144.0); // 2 s transfer
  d->submit(0.0, 0, size);
  // Timeline: position (12.66 ms) + transfer (2 s) + idle 30 s +
  // spin-down 10 s; the run ends in standby with zero standby time.
  const auto m =
      d->metrics(params_.service_time(size) + 30.0 + params_.spindown_s);
  const double expected = params_.position_time() * params_.seek_w +
                          2.0 * params_.active_w + 30.0 * params_.idle_w +
                          params_.spindown_s * params_.spindown_w;
  EXPECT_NEAR(m.energy(params_), expected, 1e-9);
}

// The Figure 5 normalizer, per disk: idle draw for the whole window plus
// the service premium (seek and active power over idle) for the busy time,
// whatever the disk actually did in between (here it spins down twice).
TEST(AlwaysOnEnergy, ClosedForm) {
  Disk d{0, DiskParams::st3500630as(),
         std::make_unique<FixedThresholdPolicy>(20.0), util::Rng{1}};
  d.submit(0.0, 0, util::mb(72.0)); // 1 s transfer each
  d.submit(100.0, 1, util::mb(72.0));
  d.submit(100.5, 2, util::mb(144.0));
  const double now = 200.0;
  const auto m = d.metrics(now);
  ASSERT_EQ(m.served, 3u);
  EXPECT_EQ(m.spin_downs, 2u);
  const double position = m.time_in(PowerState::kPositioning);
  const double transfer = m.time_in(PowerState::kTransfer);
  EXPECT_GT(position, 0.0);
  EXPECT_NEAR(transfer, 4.0, 1e-9);
  // st3500630as: idle 9.3 W, seek 12.6 W, active 13.0 W.
  EXPECT_DOUBLE_EQ(m.always_on_j, now * 9.3 + position * (12.6 - 9.3) +
                                      transfer * (13.0 - 9.3));
  EXPECT_LT(m.energy_j, m.always_on_j);
}

TEST_F(DiskFixture, MetricsSnapshotAtIntermediateTime) {
  auto d = make_disk(std::make_unique<NeverSpinDownPolicy>());
  d->submit(0.0, 0, util::mb(720.0)); // 10 s
  {
    const auto m = d->metrics(5.0);
    EXPECT_NEAR(m.busy_time(), 5.0, 1e-9);
    EXPECT_EQ(m.served, 0u); // still transferring
  }
  const auto m = d->metrics(d->settle_all());
  EXPECT_EQ(m.served, 1u);
  EXPECT_EQ(m.bytes_served, util::mb(720.0));
}

TEST_F(DiskFixture, IdleGapsRecordedBetweenArrivals) {
  auto d = make_disk(std::make_unique<NeverSpinDownPolicy>());
  const util::Bytes size = util::mb(72.0);
  const double svc = params_.service_time(size);
  d->submit(0.0, 0, size);
  d->submit(svc + 40.0, 1, size);
  const double end = d->settle_all();
  // Period 0: [0, 0) before the first request (disk idle from t = 0),
  // counted but too short for any bin; period 1: 40 s between first
  // completion and second arrival.
  const auto periods = d->metrics(end).idle_periods;
  EXPECT_EQ(periods.total(), 2u);
  ASSERT_EQ(periods.binned(), 1u);
  for (std::size_t i = 0; i < periods.bins(); ++i) {
    const bool holds_40s =
        periods.bin_lo(i) <= 40.0 && 40.0 < periods.bin_hi(i);
    EXPECT_EQ(periods.bin_count(i), holds_40s ? 1u : 0u) << "bin " << i;
  }
}

TEST_F(DiskFixture, BurstDuringSpinUpQueuesAll) {
  auto d = make_disk(std::make_unique<FixedThresholdPolicy>(5.0));
  const util::Bytes size = util::mb(72.0);
  d->submit(0.0, 0, size);
  // Disk reaches standby at svc + 5 + 10; burst arrives at 50.
  d->submit(50.0, 1, size);
  d->submit(50.0, 2, size);
  d->submit(50.0, 3, size);
  const double end = d->settle_all();
  const auto done = completions();
  ASSERT_EQ(done.size(), 4u);
  const double svc = params_.service_time(size);
  // One spin-up for the whole burst; responses stack behind it.
  EXPECT_EQ(d->metrics(end).spin_ups, 1u);
  EXPECT_NEAR(done[1].value, params_.spinup_s + svc, 1e-9);
  EXPECT_NEAR(done[3].value, params_.spinup_s + 3 * svc, 1e-9);
}

TEST_F(DiskFixture, ManyCyclesCountSpinEvents) {
  auto d = make_disk(std::make_unique<FixedThresholdPolicy>(10.0));
  const util::Bytes size = util::mb(72.0);
  // Requests spaced far enough apart that the disk standby-cycles each time.
  for (int i = 0; i < 5; ++i) d->submit(100.0 * i, i, size);
  // Until the last cycle parks: spin-up, service, idle, spin-down.
  const auto m = d->metrics(400.0 + params_.spinup_s +
                            params_.service_time(size) + 10.0 +
                            params_.spindown_s);
  EXPECT_EQ(m.served, 5u);
  EXPECT_EQ(m.spin_downs, 5u);
  EXPECT_EQ(m.spin_ups, 4u); // the first request found the disk idle
}

/// Records the feedback taps so tests can assert what the disk reports.
class ProbePolicy final : public SpinDownPolicy {
public:
  explicit ProbePolicy(std::optional<double> timeout) : timeout_(timeout) {}
  std::optional<double> idle_timeout(util::Rng&) override { return timeout_; }
  void observe_idle(double duration, bool spun_down) override {
    idle_periods.emplace_back(duration, spun_down);
  }
  void observe_completion(double response) override {
    responses.push_back(response);
  }

  std::vector<std::pair<double, bool>> idle_periods;
  std::vector<double> responses;

private:
  std::optional<double> timeout_;
};

TEST_F(DiskFixture, PolicyObservesIdlePeriodsWithoutSpinDown) {
  auto probe_owner = std::make_unique<ProbePolicy>(std::nullopt);
  ProbePolicy* probe = probe_owner.get();
  auto d = make_disk(std::move(probe_owner));
  const util::Bytes size = util::mb(72.0);
  const double svc = params_.service_time(size);
  d->submit(30.0, 0, size);
  d->submit(100.0, 1, size);
  d->settle_all();
  ASSERT_EQ(probe->idle_periods.size(), 2u);
  // First period: construction (t = 0) to the first arrival.
  EXPECT_DOUBLE_EQ(probe->idle_periods[0].first, 30.0);
  EXPECT_FALSE(probe->idle_periods[0].second);
  // Second: from first completion to the second arrival.
  EXPECT_NEAR(probe->idle_periods[1].first, 100.0 - (30.0 + svc), 1e-9);
  EXPECT_FALSE(probe->idle_periods[1].second);
}

TEST_F(DiskFixture, PolicyObservesFullPeriodAcrossSpinDown) {
  // Timeout 10 s, next arrival 200 s after going idle: the period is
  // reported once, with its *full* duration and the spun_down flag.
  auto probe_owner = std::make_unique<ProbePolicy>(10.0);
  ProbePolicy* probe = probe_owner.get();
  auto d = make_disk(std::move(probe_owner));
  const util::Bytes size = util::mb(72.0);
  d->submit(0.0, 0, size);
  const double svc = params_.service_time(size);
  d->submit(svc + 200.0, 1, size);
  const double parked =
      svc + 200.0 + params_.spinup_s + svc + 10.0 + params_.spindown_s;
  d->settle(parked);
  ASSERT_EQ(probe->idle_periods.size(), 2u);
  EXPECT_DOUBLE_EQ(probe->idle_periods[0].first, 0.0); // arrival at t = 0
  EXPECT_NEAR(probe->idle_periods[1].first, 200.0, 1e-9);
  EXPECT_TRUE(probe->idle_periods[1].second);
  // An arrival during the spin-up must NOT be reported as another period.
  // (The trailing idle period parks the disk too.)
  EXPECT_EQ(d->metrics(parked).spin_downs, 1u + 1u);
}

TEST_F(DiskFixture, PolicyObservesEveryCompletionResponse) {
  auto probe_owner = std::make_unique<ProbePolicy>(std::nullopt);
  ProbePolicy* probe = probe_owner.get();
  auto d = make_disk(std::move(probe_owner));
  const util::Bytes size = util::mb(72.0);
  d->submit(0.0, 0, size);
  d->submit(0.0, 1, size);
  d->settle_all();
  ASSERT_EQ(probe->responses.size(), 2u);
  const auto done = completions();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_DOUBLE_EQ(probe->responses[0], done[0].value);
  EXPECT_DOUBLE_EQ(probe->responses[1], done[1].value);
}

TEST_F(DiskFixture, ResponseBooksCountForegroundCompletionsOnly) {
  // Destage (background) jobs share the disk with client reads: they are
  // served and traced like any job, one of them wakes the parked disk for
  // a client read, but none enters the response books.
  auto d = make_disk(std::make_unique<FixedThresholdPolicy>(5.0));
  stats::LinearHistogram hist{0.0, 100.0, 1000};
  d->set_response_histogram(&hist);
  const util::Bytes size = util::mb(7.2); // 0.1 s transfer
  constexpr std::uint64_t kDestage = 1000; // ids from here on: background
  d->submit(0.0, 0, size);
  d->submit(0.0, kDestage, size, 0, /*background=*/true);
  d->submit(0.05, 1, size);
  d->submit(30.0, kDestage + 1, size, 0, /*background=*/true);
  d->submit(31.0, 2, size); // waits out the spin-up the destage began
  d->submit(31.0, kDestage + 2, size, 0, /*background=*/true);
  const auto m = d->metrics(d->settle_all());
  std::uint64_t foreground = 0;
  std::uint64_t background = 0;
  double foreground_sum = 0.0;
  for (const auto& c : completions()) {
    if (c.id >= kDestage) {
      ++background;
      continue;
    }
    ++foreground;
    foreground_sum += c.value;
  }
  EXPECT_EQ(foreground, 3u);
  EXPECT_EQ(background, 3u);
  EXPECT_EQ(m.served, 3u);
  EXPECT_EQ(m.destage_served, 3u);
  EXPECT_EQ(m.spin_ups, 1u);
  EXPECT_EQ(m.response.count(), 3u);
  EXPECT_EQ(hist.total(), 3u);
  EXPECT_EQ(m.response.sum(), foreground_sum);
  EXPECT_GT(m.response.max(), 30.0 + params_.spinup_s - 31.0);
}

TEST_F(DiskFixture, MetricsExposeIdlePeriodHistogram) {
  auto d = make_disk(std::make_unique<NeverSpinDownPolicy>());
  const util::Bytes size = util::mb(72.0);
  const double svc = params_.service_time(size);
  d->submit(50.0, 0, size);
  d->submit(50.0 + svc + 400.0, 1, size);
  const auto m = d->metrics(d->settle_all());
  EXPECT_EQ(m.idle_periods.total(), 2u); // 50 s and 400 s periods
  // Both land in the bins that cover their durations.
  std::uint64_t in_range = 0;
  for (std::size_t i = 0; i < m.idle_periods.bins(); ++i) {
    if (m.idle_periods.bin_count(i) == 0) continue;
    in_range += m.idle_periods.bin_count(i);
    EXPECT_TRUE((m.idle_periods.bin_lo(i) <= 50.0 &&
                 m.idle_periods.bin_hi(i) > 50.0) ||
                (m.idle_periods.bin_lo(i) <= 400.0 &&
                 m.idle_periods.bin_hi(i) > 400.0));
  }
  EXPECT_EQ(in_range, 2u);
}

} // namespace
} // namespace spindown::disk
