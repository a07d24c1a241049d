#include "sys/system.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <stdexcept>
#include <string>

#include "adapt/idle_predictor.h"
#include "adapt/share.h"
#include "adapt/slack.h"
#include "cache/cache.h"
#include "obs/trace.h"
#include "support/physical_digest.h"
#include "sys/experiment.h"
#include "util/units.h"
#include "workload/trace.h"

namespace spindown::sys {
namespace {

workload::FileCatalog uniform_catalog(std::size_t n, util::Bytes size) {
  std::vector<workload::FileInfo> files(n);
  for (std::size_t i = 0; i < n; ++i) {
    files[i].id = static_cast<workload::FileId>(i);
    files[i].size = size;
    files[i].popularity = 1.0 / static_cast<double>(n);
  }
  return workload::FileCatalog{files};
}

/// A trace replay of `trace` on `num_disks` disks; the measurement window
/// is the trace duration + 1 s.
ExperimentConfig replay_config(const workload::Trace& trace,
                               std::vector<std::uint32_t> mapping,
                               std::uint32_t num_disks, PolicySpec policy) {
  ExperimentConfig cfg;
  cfg.catalog = &trace.catalog();
  cfg.mapping = std::move(mapping);
  cfg.num_disks = num_disks;
  cfg.policy = policy;
  cfg.workload = WorkloadSpec::replay(trace);
  return cfg;
}

/// True when `made` points at a T (the dynamic type a spec's make() built).
template <typename T, typename Base>
bool is_a(const std::unique_ptr<Base>& made) {
  return dynamic_cast<const T*>(made.get()) != nullptr;
}

TEST(PolicySpec, FactoryNames) {
  const auto p = disk::DiskParams::st3500630as();
  EXPECT_TRUE(is_a<disk::NeverSpinDownPolicy>(PolicySpec::never().make(p)));
  const auto fixed = PolicySpec::fixed(10.0).make(p);
  const auto* f = dynamic_cast<const disk::FixedThresholdPolicy*>(fixed.get());
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->threshold(), 10.0);
  const auto break_even = PolicySpec::break_even().make(p);
  const auto* b =
      dynamic_cast<const disk::FixedThresholdPolicy*>(break_even.get());
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->threshold(), p.break_even_threshold());
  EXPECT_TRUE(is_a<disk::RandomizedCompetitivePolicy>(
      PolicySpec::randomized().make(p)));
  EXPECT_TRUE(
      is_a<adapt::EwmaIdlePredictorPolicy>(PolicySpec::ewma().make(p)));
  EXPECT_TRUE(is_a<adapt::ShareThresholdPolicy>(PolicySpec::share().make(p)));
  EXPECT_TRUE(is_a<adapt::SlackAwarePolicy>(PolicySpec::slack().make(p)));
}

TEST(Router, ValidatesMapping) {
  const auto cat = uniform_catalog(3, util::mb(10.0));
  const workload::Trace trace{cat, {{0.0, 0}}};
  // Shorter than the catalog.
  EXPECT_THROW(run_experiment(replay_config(trace, {0, 1}, 2,
                                            PolicySpec::never())),
               std::invalid_argument);
  // References a disk outside the farm.
  EXPECT_THROW(run_experiment(replay_config(trace, {0, 1, 7}, 2,
                                            PolicySpec::never())),
               std::invalid_argument);
}

TEST(SystemRun, ValidatesMapping) {
  // A mapping onto a disk outside the farm is rejected up front, before
  // any shard is spawned, whatever the shard count.
  const auto cat = uniform_catalog(2, util::mb(10.0));
  const workload::Trace trace{cat, {{0.0, 0}, {1.0, 1}}};
  auto cfg = replay_config(trace, {0, 5}, 2, PolicySpec::never());
  for (const std::uint32_t shards : {1u, 2u}) {
    cfg.shards = shards;
    EXPECT_THROW(run_experiment(cfg), std::invalid_argument)
        << "shards " << shards;
  }
}

TEST(Router, RoutesByMappingTable) {
  const auto cat = uniform_catalog(3, util::mb(72.0));
  const workload::Trace trace{cat, {{0.0, 0}, {0.0, 1}, {0.0, 2}}};
  const auto r = run_experiment(
      replay_config(trace, {0, 1, 0}, 2, PolicySpec::never()));
  EXPECT_EQ(r.requests, 3u);
  // Files 0 and 2 serialize on disk 0; file 1 runs in parallel on disk 1.
  EXPECT_EQ(r.per_disk[0].response.count(), 2u);
  EXPECT_EQ(r.per_disk[1].response.count(), 1u);
}

TEST(Router, CacheHitsBypassDisks) {
  const auto cat = uniform_catalog(3, util::mb(72.0));
  const workload::Trace trace{cat, {{0.0, 0}, {10.0, 0}}};
  auto cfg = replay_config(trace, {0, 1, 0}, 2, PolicySpec::never());
  cfg.cache = CacheSpec::lru(util::gb(1.0));
  const auto r = run_experiment(cfg);
  EXPECT_EQ(r.cache.hits, 1u);
  EXPECT_EQ(r.cache.misses, 1u);
  EXPECT_EQ(r.completed_at_horizon, 1u); // only the miss reached a disk
  ASSERT_EQ(r.hits_response.count(), 1u);
  EXPECT_DOUBLE_EQ(r.hits_response.mean(), 0.0); // served from memory
  EXPECT_EQ(r.response.count(), 2u);
}

TEST(Router, NoCacheMeansEveryRequestHitsDisks) {
  const auto cat = uniform_catalog(3, util::mb(72.0));
  const workload::Trace trace{
      cat, {{0.0, 0}, {0.0, 0}, {0.0, 0}, {0.0, 0}, {0.0, 0}}};
  const auto r = run_experiment(
      replay_config(trace, {0, 0, 0}, 1, PolicySpec::never()));
  EXPECT_EQ(r.cache.hits, 0u);
  EXPECT_EQ(r.per_disk[0].response.count(), 5u);
}

TEST(Router, StampsRequestsWithLayoutLba) {
  // With an SSTF disk the service order reveals the submitted LBAs.  Layout
  // on disk 0 in id order: file 0 at [0, b0), file 1 at [b0, b0+b1), file 2
  // after it.  Serving file 0 parks the head exactly at file 1's extent, so
  // the queued file-1 request beats the earlier-arrived file-2 request —
  // FCFS would serve them in arrival order.
  std::vector<workload::FileInfo> files{{0, util::mb(72.0), 0.5},
                                        {1, util::mb(144.0), 0.3},
                                        {2, util::mb(36.0), 0.2}};
  const workload::FileCatalog cat{files};
  const workload::Trace trace{cat, {{0.0, 0}, {0.0, 2}, {0.0, 1}}};
  auto cfg = replay_config(trace, {0, 0, 0}, 1, PolicySpec::never());
  cfg.scheduler = SchedulerSpec::sstf();
  cfg.obs.spans = true;
  obs::RunTrace spans;
  (void)run_experiment(cfg, &spans);
  std::vector<std::uint64_t> completed;
  for (const auto& e : spans.events) {
    if (e.kind == obs::Kind::kSpan && e.code == obs::kSpanComplete) {
      completed.push_back(e.id);
    }
  }
  EXPECT_EQ(completed, (std::vector<std::uint64_t>{0, 2, 1}));
}

TEST(Router, ExplicitRequestLbaOverridesLayout) {
  // A trace-pinned lba reaches the disk: the single request's positioning
  // is billed for the pinned distance, not the layout extent's (file 0's
  // layout lba is 0 = the head's start, which would cost only the settle
  // floor).
  const auto params = disk::DiskParams::st3500630as();
  const auto cat = uniform_catalog(3, util::mb(72.0));
  const std::uint64_t pinned = util::blocks_of(params.capacity) / 2;
  const workload::Trace trace{cat, {{0.0, 0}}, {pinned}};
  auto cfg = replay_config(trace, {0, 0, 0}, 1, PolicySpec::never());
  cfg.scheduler = SchedulerSpec::sstf();
  const auto r = run_experiment(cfg);
  ASSERT_EQ(r.response.count(), 1u);
  const double dist = static_cast<double>(pinned) /
                      static_cast<double>(util::blocks_of(params.capacity));
  EXPECT_NEAR(r.response.max(),
              params.seek_time(dist) + params.avg_rotation_s +
                  params.transfer_time(util::mb(72.0)),
              1e-9);
}

TEST(SystemRun, TraceRunAccountsEveryRequest) {
  const auto cat = uniform_catalog(4, util::mb(72.0));
  const workload::Trace trace{
      cat, {{0.0, 0}, {1.0, 1}, {2.0, 2}, {3.0, 3}, {100.0, 0}}};
  const auto r = run_experiment(
      replay_config(trace, {0, 0, 1, 1}, 2, PolicySpec::never()));
  EXPECT_EQ(r.requests, 5u);
  EXPECT_EQ(r.response.count(), 5u);
  EXPECT_EQ(r.per_disk.size(), 2u);
  // The per-disk snapshot is taken at the measurement horizon (trace end
  // + 1 s); the final request is still in service there.
  EXPECT_EQ(r.per_disk[0].served + r.per_disk[1].served, 4u);
}

/// A small spin-down run with a front cache, so every term of both
/// conservation identities is non-zero.
RunResult conservation_run(const disk::DiskParams& params) {
  const auto cat = uniform_catalog(4, util::mb(72.0));
  const workload::Trace trace{
      cat, {{0.0, 0}, {1.0, 1}, {2.0, 0}, {3.0, 3}, {100.0, 2}}};
  auto cfg = replay_config(trace, {0, 0, 1, 1}, 2, PolicySpec::fixed(5.0));
  cfg.params = params;
  cfg.cache = CacheSpec::lru(util::mb(200.0));
  const RunResult r = run_experiment(cfg);
  EXPECT_GT(r.cache.hits, 0u);
  EXPECT_GT(r.in_flight_at_horizon, 0u);
  EXPECT_GT(r.power.spin_downs, 0u);
  EXPECT_NO_THROW(check_conservation(r, params));
  return r;
}

/// check_conservation's message on `r`, or "" when it passes.
std::string conservation_error(const RunResult& r,
                               const disk::DiskParams& params) {
  try {
    check_conservation(r, params);
  } catch (const std::logic_error& e) {
    return e.what();
  }
  return "";
}

TEST(Conservation, EnergyNotMatchingTheStateLedgerThrows) {
  const auto params = disk::DiskParams::st3500630as();
  RunResult r = conservation_run(params);
  r.per_disk[1].state_time[static_cast<std::size_t>(
      disk::PowerState::kStandby)] += 1.0; // one unbilled standby second
  const std::string what = conservation_error(r, params);
  EXPECT_NE(what.find("RunResult: energy " +
                      util::format_roundtrip(r.power.energy) +
                      " J != sum of state_time x state power"),
            std::string::npos)
      << what;
}

TEST(Conservation, RequestsNotAccountedAtTheHorizonThrow) {
  const auto params = disk::DiskParams::st3500630as();
  RunResult r = conservation_run(params);
  r.in_flight_at_horizon -= 1; // a request lost at the horizon
  const std::string what = conservation_error(r, params);
  EXPECT_NE(what.find("RunResult: requests 5 != completed + in flight + "
                      "cache hits 4"),
            std::string::npos)
      << what;
}

TEST(SystemRun, NeverPolicyMatchesAlwaysOnEnergy) {
  // With spin-down disabled, measured energy must equal the closed-form
  // always-on normalizer (same integration window) — saving == 0.
  const auto cat = uniform_catalog(3, util::mb(144.0));
  const workload::Trace trace{cat, {{5.0, 0}, {17.0, 1}, {31.0, 2}}};
  const auto r = run_experiment(
      replay_config(trace, {0, 1, 2}, 3, PolicySpec::never()));
  EXPECT_NEAR(r.power.energy, r.power.always_on_energy, 1e-6);
  EXPECT_NEAR(r.power.saving_vs_always_on, 0.0, 1e-9);
  EXPECT_EQ(r.power.spin_downs, 0u);
}

TEST(SystemRun, AggressivePolicySavesEnergyOnSparseLoad) {
  const auto cat = uniform_catalog(3, util::mb(72.0));
  // One request per disk, then a long quiet tail; the read of file 0 at
  // 3999 s stretches the measurement window to 4000 s and lands too late
  // for a second spin-down.
  const workload::Trace trace{cat,
                              {{0.0, 0}, {1.0, 1}, {2.0, 2}, {3999.0, 0}}};
  const auto run_with = [&](PolicySpec policy) {
    return run_experiment(replay_config(trace, {0, 1, 2}, 3, policy));
  };
  const auto never = run_with(PolicySpec::never());
  const auto fixed = run_with(PolicySpec::fixed(30.0));
  EXPECT_LT(fixed.power.energy, never.power.energy);
  EXPECT_GT(fixed.power.saving_vs_always_on, 0.5); // mostly standby
  EXPECT_EQ(fixed.power.spin_downs, 3u);
  // Power is measured over the same fixed window.
  EXPECT_DOUBLE_EQ(fixed.power.horizon_s, 4000.0);
  EXPECT_DOUBLE_EQ(never.power.horizon_s, 4000.0);
}

TEST(SystemRun, SpinUpPenaltyVisibleInResponseTimes) {
  const auto cat = uniform_catalog(1, util::mb(72.0));
  const auto params = disk::DiskParams::st3500630as();
  // Second request arrives long after the disk has gone to standby.
  const workload::Trace trace{cat, {{0.0, 0}, {500.0, 0}}};
  const auto r = run_experiment(
      replay_config(trace, {0}, 1, PolicySpec::fixed(20.0)));
  EXPECT_EQ(r.power.spin_ups, 1u);
  EXPECT_NEAR(r.response.max(),
              params.spinup_s + params.service_time(util::mb(72.0)), 1e-9);
  EXPECT_NEAR(r.response.min(), params.service_time(util::mb(72.0)), 1e-9);
}

TEST(SystemRun, ArrivalAtTimerExpiryFindsTheDiskSpinningDown) {
  // The one same-timestamp tie rule: pending disk events at t <= arrival
  // run before the submission at t.  The second read lands exactly on the
  // fixed:T idle-timer expiry (first completion + T, the same expression
  // the disk evaluates), so the timer fires first: the disk spins down,
  // and the read waits out the spin-down and a spin-up.  The opposite rule
  // would disarm the timer and serve it at once.  The third read, long
  // after, stretches the window past the spin-up.
  const auto params = disk::DiskParams::st3500630as();
  const auto size = util::mb(72.0);
  const double threshold = 200.0;
  const double expiry = params.service_time(size) + threshold;
  const auto cat = uniform_catalog(1, size);
  const workload::Trace trace{cat,
                              {{0.0, 0}, {expiry, 0}, {expiry + 100.0, 0}}};
  const auto r = run_experiment(
      replay_config(trace, {0}, 1, PolicySpec::fixed(threshold)));
  EXPECT_EQ(r.power.spin_downs, 1u);
  EXPECT_EQ(r.power.spin_ups, 1u);
  EXPECT_EQ(r.response.count(), 3u);
  EXPECT_NEAR(r.response.max(),
              params.spindown_s + params.spinup_s + params.service_time(size),
              1e-9);
  EXPECT_NEAR(r.response.min(), params.service_time(size), 1e-9);
}

TEST(SystemRun, DeterministicAcrossRuns) {
  // Same config, same seed: two runs agree on every physical field.
  const auto cat = uniform_catalog(20, util::mb(100.0));
  ExperimentConfig cfg;
  cfg.catalog = &cat;
  cfg.mapping.resize(20);
  for (std::uint32_t i = 0; i < 20; ++i) cfg.mapping[i] = i % 4;
  cfg.num_disks = 4;
  cfg.policy = PolicySpec::break_even();
  cfg.workload = WorkloadSpec::poisson(0.5, 500.0);
  cfg.seed = 7;
  const auto a = run_experiment(cfg);
  const auto b = run_experiment(cfg);
  EXPECT_GT(a.requests, 0u);
  EXPECT_DOUBLE_EQ(a.power.energy, b.power.energy);
  EXPECT_EQ(a.response.count(), b.response.count());
  EXPECT_DOUBLE_EQ(a.response.mean(), b.response.mean());
  EXPECT_EQ(test_support::physical_digest(a),
            test_support::physical_digest(b));
}

TEST(SystemRun, RandomizedPolicySeedsDifferPerDisk) {
  // All disks idle from t=0 with no requests: randomized policy should give
  // them different spin-down times (they draw from split RNG streams).
  const auto cat = uniform_catalog(2, util::mb(10.0));
  ExperimentConfig cfg;
  cfg.catalog = &cat;
  cfg.mapping = {0, 1};
  cfg.num_disks = 8;
  cfg.policy = PolicySpec::randomized();
  // A vanishing rate: no arrival inside the 200 s window.
  cfg.workload = WorkloadSpec::poisson(1e-12, 200.0);
  const auto r = run_experiment(cfg);
  EXPECT_EQ(r.requests, 0u);
  EXPECT_EQ(r.power.spin_downs, 8u);
  // Idle times differ across disks (probability of a tie ~ 0).
  std::set<double> idle_times;
  for (const auto& m : r.per_disk) {
    idle_times.insert(m.time_in(disk::PowerState::kIdle));
  }
  EXPECT_GT(idle_times.size(), 1u);
}

TEST(SchedulerSpecTest, FactoryNamesAndParse) {
  // Each spec hands the disk a queue of its discipline; only FCFS keeps
  // the constant positioning cost.
  const auto check = [](const SchedulerSpec& spec, disk::Discipline kind,
                        bool geometry_aware) {
    const disk::IoQueue q = spec.queue();
    EXPECT_EQ(q.discipline, kind) << spec.spec();
    EXPECT_EQ(q.geometry_aware, geometry_aware) << spec.spec();
  };
  check(SchedulerSpec::fcfs(), disk::Discipline::kFcfs, false);
  check(SchedulerSpec::sstf(), disk::Discipline::kSstf, true);
  check(SchedulerSpec::scan(), disk::Discipline::kScan, true);
  check(SchedulerSpec::clook(), disk::Discipline::kClook, true);
  check(SchedulerSpec::batch(8), disk::Discipline::kBatch, true);
  // C-LOOK is a batch of one; batch(1) is clook().
  check(SchedulerSpec::batch(1), disk::Discipline::kClook, true);
  EXPECT_EQ(SchedulerSpec::batch(1).spec(), "clook");
  EXPECT_EQ(SchedulerSpec::parse("batch1x4096").spec(), "clook");
  EXPECT_EQ(SchedulerSpec::parse("sstf").kind, SchedulerSpec::Kind::kSstf);
  EXPECT_EQ(SchedulerSpec::parse("fcfs").kind, SchedulerSpec::Kind::kFcfs);
  // spec() round-trips through parse(), including the parameterized batch.
  EXPECT_EQ(SchedulerSpec::parse("batch8").max_batch, 8u);
  EXPECT_EQ(SchedulerSpec::parse(SchedulerSpec::batch(8).spec()).spec(),
            "batch8");
  EXPECT_THROW(SchedulerSpec::parse("elevator"), std::invalid_argument);
  EXPECT_THROW(SchedulerSpec::parse("batchx"), std::invalid_argument);
  EXPECT_THROW(SchedulerSpec::parse("batch0"), std::invalid_argument);
}

TEST(SystemRun, SchedulerDisciplineDifferentiatesQueueBuildingLoad) {
  // 40 small files on disk 0, all requested in one burst in shuffled
  // order: the queue is deep, FCFS jumps across the layout while the
  // geometry-aware disciplines sweep it — mean response and energy must
  // differ, and the batching scheduler must coalesce positioning phases.
  // File 40 lives alone on disk 1; its read at 599 s only stretches the
  // window to 600 s, past the burst's full drain.
  const auto cat = uniform_catalog(41, util::mb(8.0));
  std::vector<workload::TraceRecord> records;
  for (std::size_t i = 0; i < 40; ++i) {
    // Deterministic shuffle: stride 17 is coprime with 40.
    records.push_back({0.0, static_cast<workload::FileId>((i * 17) % 40)});
  }
  records.push_back({599.0, 40});
  const workload::Trace trace{cat, std::move(records)};
  std::vector<std::uint32_t> mapping(41, 0);
  mapping[40] = 1;

  const auto run_with = [&](const SchedulerSpec& spec) {
    auto cfg = replay_config(trace, mapping, 2, PolicySpec::never());
    cfg.scheduler = spec;
    return run_experiment(cfg);
  };
  const auto fcfs = run_with(SchedulerSpec::fcfs());
  const auto sstf = run_with(SchedulerSpec::sstf());
  const auto scan = run_with(SchedulerSpec::scan());
  const auto batch = run_with(SchedulerSpec::batch());

  // The burst built a real queue: mean response far exceeds one service.
  const double svc =
      disk::DiskParams::st3500630as().service_time(util::mb(8.0));
  EXPECT_GT(fcfs.per_disk[0].response.mean(), 5.0 * svc);

  // Geometry-aware sweeps position cheaper than the constant-cost FCFS.
  EXPECT_LT(sstf.response.mean(), fcfs.response.mean());
  EXPECT_LT(scan.response.mean(), fcfs.response.mean());
  EXPECT_LT(batch.response.mean(), fcfs.response.mean());
  EXPECT_LT(sstf.power.energy, fcfs.power.energy);
  EXPECT_LT(batch.power.energy, fcfs.power.energy);

  // Batching coalesced adjacent extents: fewer positioning phases than
  // requests; the one-at-a-time disciplines pay one per request.
  EXPECT_EQ(fcfs.per_disk[0].positionings, 40u);
  EXPECT_EQ(sstf.per_disk[0].positionings, 40u);
  EXPECT_LT(batch.per_disk[0].positionings, 40u);

  // Every discipline serves every burst request exactly once.
  for (const auto* r : {&fcfs, &sstf, &scan, &batch}) {
    EXPECT_EQ(r->per_disk[0].response.count(), 40u);
    EXPECT_EQ(r->per_disk[0].served, 40u);
    EXPECT_EQ(r->per_disk[0].queued + r->per_disk[0].in_service, 0u);
  }
}

TEST(SystemRun, HorizonSnapshotCountsInFlightExactlyOnce) {
  // Two disks, 10 s transfers; at the 11 s horizon (last arrival + 1 s)
  // disk 0 has one request served and one mid-transfer, disk 1 has one
  // mid-transfer and one queued.  The snapshot must place each of the four
  // requests in exactly one bucket, while the response summary still
  // drains them all.
  const auto cat = uniform_catalog(4, util::mb(720.0));
  const workload::Trace trace{
      cat, {{0.0, 0}, {0.0, 1}, {2.0, 2}, {10.0, 3}}};
  const auto r = run_experiment(
      replay_config(trace, {0, 0, 1, 1}, 2, PolicySpec::never()));
  EXPECT_DOUBLE_EQ(r.power.horizon_s, 11.0);
  EXPECT_EQ(r.requests, 4u);
  EXPECT_EQ(r.completed_at_horizon, 1u);
  EXPECT_EQ(r.in_flight_at_horizon, 3u);
  EXPECT_EQ(r.completed_at_horizon + r.in_flight_at_horizon + r.cache.hits,
            r.requests);
  // Disk 0: served 1, transferring 1.  Disk 1: transferring 1, queued 1.
  EXPECT_EQ(r.per_disk[0].served, 1u);
  EXPECT_EQ(r.per_disk[0].in_service, 1u);
  EXPECT_EQ(r.per_disk[0].queued, 0u);
  EXPECT_EQ(r.per_disk[1].served, 0u);
  EXPECT_EQ(r.per_disk[1].in_service, 1u);
  EXPECT_EQ(r.per_disk[1].queued, 1u);
  // All requests still run to completion and record response times.
  EXPECT_EQ(r.response.count(), 4u);
}

} // namespace
} // namespace spindown::sys
