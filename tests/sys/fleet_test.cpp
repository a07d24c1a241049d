#include "sys/fleet.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "support/physical_digest.h"
#include "sys/scenario.h"
#include "util/rng.h"
#include "util/units.h"
#include "workload/trace.h"

namespace spindown::sys {
namespace {

using test_support::physical_digest;

workload::FileCatalog fleet_catalog(std::size_t n_files = 12) {
  std::vector<workload::FileInfo> files(n_files);
  for (std::size_t i = 0; i < files.size(); ++i) {
    files[i].id = static_cast<workload::FileId>(i);
    files[i].size = util::mb(50.0 + 10.0 * static_cast<double>(i % 4));
    files[i].popularity = 1.0 / static_cast<double>(n_files);
  }
  return workload::FileCatalog{files};
}

ExperimentConfig fleet_config(const workload::FileCatalog& cat,
                              std::uint32_t num_disks = 6) {
  ExperimentConfig cfg;
  cfg.catalog = &cat;
  cfg.mapping.resize(cat.size());
  for (std::size_t i = 0; i < cfg.mapping.size(); ++i) {
    cfg.mapping[i] = static_cast<std::uint32_t>(i % num_disks);
  }
  cfg.num_disks = num_disks;
  cfg.workload = WorkloadSpec::poisson(0.8, 200.0);
  cfg.seed = 17;
  return cfg;
}

// The reference digests below were captured from the retired
// single-calendar engine (one global event calendar with an arrival pump):
// an independent record of each scenario's physics that the sharded engine
// must reproduce at every shard count.  `events` is not in the digest — it
// is an engine statistic, not part of the invariance contract.

TEST(FleetInvariance, MatchesSingleCalendarAcrossShardCounts) {
  // The headline contract: every physical result field is bit-identical at
  // any shard count.  The grid deliberately crosses an adaptive policy and
  // a bursty workload with a cache, so per-disk RNG streams, arrival-order
  // cache mutation, and drain behavior are all exercised.
  const auto cat = fleet_catalog();
  struct Case {
    WorkloadSpec workload;
    CacheSpec cache;
    const char* digest;
  };
  const std::vector<Case> cases{
      {WorkloadSpec::poisson(0.8, 200.0), CacheSpec::none(),
       "9e3b6480fd9a4c94"},
      {WorkloadSpec::poisson(0.8, 200.0), CacheSpec::lru(util::mb(200.0)),
       "3a76d69d7d432f88"},
      {WorkloadSpec::mmpp({{2.0, 0.1}, {30.0, 60.0}}, 200.0),
       CacheSpec::none(), "8dc565aa392e7fae"},
      {WorkloadSpec::mmpp({{2.0, 0.1}, {30.0, 60.0}}, 200.0),
       CacheSpec::lru(util::mb(200.0)), "a8c78fe8e543aac0"}};
  for (const auto& p : {PolicySpec::break_even(), PolicySpec::ewma()}) {
    for (const auto& c : cases) {
      auto cfg = fleet_config(cat);
      cfg.policy = p;
      cfg.workload = c.workload;
      cfg.cache = c.cache;
      for (const std::uint32_t shards : {1u, 2u, 4u, 8u}) {
        SCOPED_TRACE("policy " + p.spec() + " workload " + c.workload.spec() +
                     " cache " + c.cache.spec() + " shards " +
                     std::to_string(shards));
        cfg.shards = shards;
        EXPECT_EQ(physical_digest(run_experiment(cfg)), c.digest);
      }
    }
  }
}

TEST(FleetInvariance, RepeatedRunsAreBitIdenticalOnTheSameScenario) {
  // Two runs at the same shard count agree on every physical field and on
  // the engine's event count, however the worker threads interleave.
  // Crossed with an adaptive policy and a bursty workload so per-disk RNG
  // consumption differs between disks.
  const auto cat = fleet_catalog();
  struct Case {
    WorkloadSpec workload;
    const char* digest;
  };
  const std::vector<Case> cases{
      {WorkloadSpec::poisson(0.8, 200.0), "9e3b6480fd9a4c94"},
      {WorkloadSpec::mmpp({{2.0, 0.1}, {30.0, 60.0}}, 200.0),
       "8dc565aa392e7fae"}};
  for (const auto& c : cases) {
    auto cfg = fleet_config(cat);
    cfg.policy = PolicySpec::ewma();
    cfg.workload = c.workload;
    for (const std::uint32_t shards : {2u, 4u, 8u}) {
      SCOPED_TRACE("workload " + c.workload.spec() + " shards " +
                   std::to_string(shards));
      cfg.shards = shards;
      const auto first = run_experiment(cfg);
      const auto second = run_experiment(cfg);
      EXPECT_EQ(physical_digest(first), c.digest);
      EXPECT_EQ(physical_digest(second), c.digest);
      EXPECT_EQ(first.events, second.events);
    }
  }
}

TEST(FleetMerge, TwoShardSplitEqualsSingleCalendar) {
  const auto cat = fleet_catalog();
  auto cfg = fleet_config(cat);
  cfg.cache = CacheSpec::lru(util::mb(150.0));
  const auto partials = run_fleet_partials(cfg, 2);
  ASSERT_EQ(partials.size(), 3u); // router + 2 disk groups
  RunResult merged;
  for (const auto& p : partials) merged.merge(p);
  EXPECT_EQ(physical_digest(merged), "91a00b9b45fc66ee");
}

TEST(FleetMerge, FoldIsAssociativeAndOrderIndependent) {
  // merge() recomputes every aggregate from the merged per-disk records, so
  // any fold order over the partials must produce the same bits.
  const auto cat = fleet_catalog();
  const auto cfg = fleet_config(cat);
  const auto partials = run_fleet_partials(cfg, 3);
  ASSERT_EQ(partials.size(), 4u);

  RunResult forward;
  for (const auto& p : partials) forward.merge(p);
  RunResult backward;
  for (auto it = partials.rbegin(); it != partials.rend(); ++it) {
    backward.merge(*it);
  }
  RunResult grouped; // ((0 + 2) + (3 + 1))
  RunResult left, right;
  left.merge(partials[0]).merge(partials[2]);
  right.merge(partials[3]).merge(partials[1]);
  grouped.merge(left).merge(right);

  const std::string single_calendar = "9e3b6480fd9a4c94";
  EXPECT_EQ(physical_digest(forward), single_calendar);
  EXPECT_EQ(physical_digest(backward), single_calendar);
  EXPECT_EQ(physical_digest(grouped), single_calendar);
}

TEST(FleetMerge, RejectsMismatchedHorizons) {
  const auto cat = fleet_catalog();
  auto cfg = fleet_config(cat);
  const auto a = run_experiment(cfg);
  cfg.workload = WorkloadSpec::poisson(0.8, 300.0);
  const auto b = run_experiment(cfg);
  RunResult merged;
  merged.merge(a);
  EXPECT_THROW(merged.merge(b), std::invalid_argument);
}

TEST(FleetMerge, RejectsOverlappingDiskIds) {
  const auto cat = fleet_catalog();
  const auto cfg = fleet_config(cat);
  const auto a = run_experiment(cfg);
  RunResult merged;
  merged.merge(a);
  EXPECT_THROW(merged.merge(a), std::invalid_argument);
}

TEST(FleetTies, SimultaneousCompletionsMatchSingleCalendar) {
  // Regression for the latent completion-ordering assumption: requests of
  // identical size submitted at the same instant to different disks finish
  // at identical timestamps.  In one shard those completions resolve disk
  // by disk; sharded, each resolves on its own worker.  The result
  // must not depend on that interleaving — canonical aggregation folds
  // per-disk records in disk-id order either way.
  std::vector<workload::FileInfo> files(4);
  for (std::size_t i = 0; i < files.size(); ++i) {
    files[i].id = static_cast<workload::FileId>(i);
    files[i].size = util::mb(80.0); // equal sizes -> equal service times
    files[i].popularity = 0.25;
  }
  const workload::FileCatalog cat{files};
  std::vector<double> times;
  std::vector<workload::FileId> ids;
  for (const double t : {0.5, 40.5, 90.5}) {
    for (std::uint32_t f = 0; f < 4; ++f) {
      times.push_back(t);
      ids.push_back(f);
    }
  }
  const workload::Trace trace{cat, std::move(times), std::move(ids)};

  ExperimentConfig cfg;
  cfg.catalog = &cat;
  cfg.mapping = {0, 1, 2, 3}; // one file per disk
  cfg.num_disks = 4;
  cfg.workload = WorkloadSpec::replay(trace);
  cfg.seed = 23;
  for (const std::uint32_t shards : {1u, 2u, 4u}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    cfg.shards = shards;
    const auto r = run_experiment(cfg);
    EXPECT_EQ(r.requests, 12u);
    EXPECT_EQ(physical_digest(r), "bf479b4975ac8c93");
  }
}

TEST(EffectiveShards, ClampsToFarmAndResolvesAuto) {
  EXPECT_EQ(effective_shards(1, 100), 1u);
  EXPECT_EQ(effective_shards(4, 100), 4u);
  EXPECT_EQ(effective_shards(8, 3), 3u);  // a shard owns >= 1 disk
  EXPECT_EQ(effective_shards(5, 0), 1u);  // degenerate farm
  EXPECT_GE(effective_shards(0, 64), 1u); // auto: hardware_concurrency
  EXPECT_LE(effective_shards(0, 2), 2u);
}

TEST(EffectiveShards, AutoAppliesTheDisksPerShardFloor) {
  // shards=auto must never land in the oversharded regime: each auto
  // shard owns at least kAutoMinDisksPerShard disks, whatever the host's
  // hardware concurrency.  Explicit shard counts are still honored.
  for (const std::uint32_t disks : {1u, 16u, 31u, 32u, 63u, 64u, 4096u}) {
    const std::uint32_t floor_cap =
        std::max(1u, disks / kAutoMinDisksPerShard);
    EXPECT_LE(effective_shards(0, disks), floor_cap)
        << "disks " << disks;
  }
  EXPECT_EQ(effective_shards(0, 31), 1u); // below one floor's worth
  EXPECT_EQ(effective_shards(8, 16), 8u); // explicit: floor not applied
}

TEST(FleetPerf, CountersDescribeThePipeline) {
  const auto cat = fleet_catalog();
  auto cfg = fleet_config(cat);
  cfg.shards = 3;
  FleetPerf perf;
  const auto r = run_experiment(cfg, nullptr, &perf);
  EXPECT_EQ(perf.shards, 3u);
  ASSERT_EQ(perf.per_shard.size(), 3u);
  std::uint64_t submitted = 0;
  for (std::uint32_t s = 0; s < 3; ++s) {
    EXPECT_EQ(perf.per_shard[s].shard, s);
    EXPECT_GT(perf.per_shard[s].batches, 0u);
    EXPECT_GT(perf.per_shard[s].events, 0u);
    EXPECT_GE(perf.per_shard[s].ring_high_water, 1u);
    submitted += perf.per_shard[s].submissions;
  }
  EXPECT_EQ(submitted, r.requests); // cache=none: every request lands
  ASSERT_EQ(perf.worker_busy_s.size(), 3u);
  ASSERT_EQ(perf.worker_wait_s.size(), 3u);
  EXPECT_GE(perf.router_busy_s, 0.0);
  EXPECT_GE(perf.router_stall_s, 0.0);
  EXPECT_GE(perf.feeder_busy_s, 0.0);
  EXPECT_GE(perf.feeder_stall_s, 0.0);
  const std::string json = to_json(perf);
  EXPECT_NE(json.find("\"feeder_busy_s\": "), std::string::npos);
  EXPECT_NE(json.find("\"feeder_stall_s\": "), std::string::npos);
}

TEST(FleetPerf, CountersAgreeWithTheProfile) {
  // One clock per stage feeds both FleetPerf and the profile samples: each
  // shard gets one router fill and one replay per batch, and its ring-wait
  // samples add up to its wait counter exactly.
  const auto cat = fleet_catalog();
  auto cfg = fleet_config(cat);
  cfg.shards = 3;
  cfg.obs.profile = true;
  FleetPerf perf;
  obs::RunTrace trace;
  (void)run_experiment(cfg, &trace, &perf);
  ASSERT_EQ(perf.per_shard.size(), 3u);
  std::uint64_t router_fills = 0;
  for (const auto& e : trace.profile) {
    router_fills += e.code == obs::kProfRouterFill ? 1 : 0;
  }
  for (std::uint32_t w = 0; w < 3; ++w) {
    SCOPED_TRACE("shard " + std::to_string(w));
    std::uint64_t replays = 0;
    double waited = 0.0;
    for (const auto& e : trace.profile) {
      if (e.track != w) continue;
      replays += e.code == obs::kProfWorkerReplay ? 1 : 0;
      if (e.code == obs::kProfRingWait) waited += e.value;
    }
    EXPECT_EQ(replays, perf.per_shard[w].batches);
    EXPECT_EQ(router_fills, perf.per_shard[w].batches);
    EXPECT_EQ(waited, perf.worker_wait_s[w]);
  }
}

TEST(RunFleet, RejectsOffloadWithFewerDisksThanLogDisks) {
  // A hand-built config (scenario resolution always adds the log disks):
  // the data-disk count num_disks - log_disks would wrap around.
  const auto cat = fleet_catalog();
  auto cfg = fleet_config(cat, 6);
  cfg.orch.offload = true;
  cfg.orch.log_disks = 8;
  for (const std::uint32_t shards : {1u, 3u}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    cfg.shards = shards;
    try {
      (void)run_experiment(cfg);
      ADD_FAILURE() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("8 log disks"), std::string::npos) << what;
      EXPECT_NE(what.find("num_disks is 6"), std::string::npos) << what;
    }
  }
}

TEST(RunFleet, RequiresPositiveHorizon) {
  const auto cat = fleet_catalog();
  auto cfg = fleet_config(cat);
  cfg.workload = WorkloadSpec::poisson(0.8, 0.0);
  cfg.shards = 2;
  EXPECT_THROW(run_experiment(cfg), std::invalid_argument);
}

TEST(FleetScenario, ShardsKeyChangesWallClockOnly) {
  // End to end through the scenario grammar: the shards key changes
  // wall-clock strategy only, never the reported result row.
  const ScenarioSpec base = ScenarioSpec::parse(
      "catalog=table1(400) load=0.9 policy=break-even "
      "workload=poisson(1,300) seed=9");
  const auto baseline = run_scenario(base);
  const auto sharded = run_scenario(base.with("shards", "4"));
  EXPECT_EQ(physical_digest(baseline), "a0077b9a361ba0d6");
  EXPECT_EQ(physical_digest(sharded), "a0077b9a361ba0d6");
  EXPECT_EQ(to_json(base, baseline).find("shards"), std::string::npos);
  EXPECT_NE(to_json(base.with("shards", "4"), sharded).find("shards=4"),
            std::string::npos);
}

// Pipeline edge cases: the feeder hands the router cache-filtered arrivals
// in chunks of up to 4096, and the router turns each chunk into one batch
// per shard, so a burst may span several chunks, and one chunk may hold
// arrivals hundreds of seconds apart.  Each replay below stresses one of
// those seams and must reproduce, at every shard count, the digest
// captured from an earlier engine, whose router generated, cached and
// routed whole time windows on one thread.

/// 16 files of 1 MB on 8 disks: cheap to serve, so bursts of thousands of
/// requests stay fast to simulate.
workload::FileCatalog small_files() {
  std::vector<workload::FileInfo> files(16);
  for (std::size_t i = 0; i < files.size(); ++i) {
    files[i].id = static_cast<workload::FileId>(i);
    files[i].size = util::mb(1.0);
    files[i].popularity = 1.0 / 16.0;
  }
  return workload::FileCatalog{files};
}

/// A trace's time and file columns, built up burst by burst.
struct Records {
  std::vector<double> times;
  std::vector<workload::FileId> files;
  void push(double t, workload::FileId f) {
    times.push_back(t);
    files.push_back(f);
  }
};

/// Appends `count` arrivals spaced `gap` seconds apart from `t0`, cycling
/// the files with a stride so neighbouring requests hit different disks.
void add_burst(Records& records, double t0, std::size_t count, double gap,
               std::uint32_t files) {
  for (std::size_t i = 0; i < count; ++i) {
    records.push(t0 + gap * static_cast<double>(i),
                 static_cast<workload::FileId>((i * 5) % files));
  }
}

/// Runs `trace` replayed on `cat` (8 disks, round-robin mapping) at shards
/// {1, 2, 3, 8} and checks each result against `digest`.
void expect_pipeline_digest(const workload::FileCatalog& cat,
                            const workload::Trace& trace, CacheSpec cache,
                            PolicySpec policy, const char* digest) {
  auto cfg = fleet_config(cat, 8);
  cfg.workload = WorkloadSpec::replay(trace);
  cfg.cache = cache;
  cfg.policy = policy;
  for (const std::uint32_t shards : {1u, 2u, 3u, 8u}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    cfg.shards = shards;
    const auto r = run_experiment(cfg);
    EXPECT_EQ(r.requests, trace.size());
    EXPECT_EQ(physical_digest(r), digest);
  }
}

TEST(FleetPipeline, WindowSpanningSeveralChunksMatchesPreviousEngine) {
  // The 14 215 arrivals take four chunks: the opening burst of 10 000
  // arrivals in 1 s fills the first two (4096 + 4096); the third holds the
  // burst's last 1808, the 59 sparse arrivals and the first 2229 of the
  // 4096-arrival burst at 300 s (0.41 s long), whose other 1867 open the
  // fourth.
  const auto cat = small_files();
  Records records;
  add_burst(records, 0.0, 10'000, 1e-4, 16);
  add_burst(records, 5.0, 59, 5.0, 16); // sparse: 5 s .. 295 s
  add_burst(records, 300.0, 4096, 1e-4, 16);
  add_burst(records, 305.0, 60, 5.0, 16); // sparse: 305 s .. 600 s
  const workload::Trace trace{cat, std::move(records.times),
                              std::move(records.files)};
  expect_pipeline_digest(cat, trace, CacheSpec::lru(util::mb(3.0)),
                         PolicySpec::break_even(), "d9bccd8478b7b0fe");

  // The profile confirms the seams: the feeder fills four chunks, and the
  // router fills one batch per shard for each of them.
  auto cfg = fleet_config(cat, 8);
  cfg.workload = WorkloadSpec::replay(trace);
  cfg.obs.profile = true;
  cfg.shards = 2;
  obs::RunTrace profiled;
  (void)run_experiment(cfg, &profiled);
  std::size_t feeder_fills = 0, router_fills = 0;
  for (const auto& e : profiled.profile) {
    feeder_fills += e.code == obs::kProfFeederFill ? 1 : 0;
    router_fills += e.code == obs::kProfRouterFill ? 1 : 0;
  }
  EXPECT_EQ(feeder_fills, 4u);
  EXPECT_EQ(router_fills, feeder_fills);
}

TEST(FleetPipeline, IdleStretchesJumpTheFrontier) {
  // Bursts separated by idle gaps of up to 687 s on a 1394 s horizon: one
  // chunk holds arrivals hundreds of seconds apart, and the disks spin
  // down in between.
  const auto cat = small_files();
  Records records;
  for (const double t0 : {0.0, 250.0, 251.0, 700.0, 1390.0}) {
    add_burst(records, t0, 300, 0.01, 16);
  }
  const workload::Trace trace{cat, std::move(records.times),
                              std::move(records.files)};
  expect_pipeline_digest(cat, trace, CacheSpec::none(), PolicySpec::fixed(10.0),
                         "8fb07069eb453fb0");
}

TEST(FleetPipeline, CacheHeavyReplayWithAllHitChunks) {
  // Four files and a cache that holds them all: after four cold misses
  // every arrival is a hit, so nearly every chunk the feeder forwards is
  // hits only and the shard batches stay empty chunk after chunk.
  const auto cat = small_files();
  Records records;
  add_burst(records, 0.0, 20'000, 0.01, 4);
  const workload::Trace trace{cat, std::move(records.times),
                              std::move(records.files)};
  expect_pipeline_digest(cat, trace, CacheSpec::lru(util::mb(8.0)),
                         PolicySpec::break_even(), "864a03ffd232ef37");
}

TEST(FleetPipeline, ExplicitLbasWithOrchestrationAcrossChunkSeams) {
  // Every record carries its own LBA, and every orchestration mechanism is
  // live: 7 data disks + 1 log disk, 2-way replicas, 40% writes off-loaded
  // to the log tier with a 5 s destage deadline, SSTF so each address moves
  // the service order.  The sparse phases (one arrival per 0.5 s, each disk
  // idle 3.5 s against a 2 s spin-down) absorb writes; the 3 s burst of
  // 12 000 arrivals at 300 s spans three chunks.  The burst touches only
  // files 0 and 1 (primaries 0 and 1, replicas 3 and 4), so a debt owed to
  // disk 2, 5 or 6 can only destage by deadline there, mid-chunk and at
  // chunk seams, while the requests on the burst's disks trigger destages
  // of their own debts.
  const auto cat = small_files();
  util::Rng lba_rng{23};
  Records records;
  std::vector<std::uint64_t> lbas;
  const auto add = [&](double t0, std::size_t count, double gap,
                       std::uint32_t files) {
    for (std::size_t i = 0; i < count; ++i) {
      records.push(t0 + gap * static_cast<double>(i),
                   static_cast<workload::FileId>((i * 5) % files));
      lbas.push_back(lba_rng.uniform_int(0, 900'000'000));
    }
  };
  add(0.0, 600, 0.5, 14);        // 0 .. 299.5 s, each disk every 3.5 s
  add(300.0, 12'000, 2.5e-4, 2); // 300 .. 303 s
  add(305.0, 592, 0.5, 16);      // 305 .. 600.5 s
  const workload::Trace trace{cat, std::move(records.times),
                              std::move(records.files), std::move(lbas)};

  auto cfg = fleet_config(cat, 7);
  cfg.orch = OrchSpec::parse("redirect+offload:1:5+writes:0.4");
  cfg.num_disks = 7 + cfg.orch.log_disks;
  cfg.replicas = 2;
  cfg.workload = WorkloadSpec::replay(trace);
  cfg.policy = PolicySpec::fixed(2.0);
  cfg.scheduler = SchedulerSpec::sstf();
  for (const std::uint32_t shards : {1u, 2u, 3u, 8u}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    cfg.shards = shards;
    const auto r = run_experiment(cfg);
    EXPECT_EQ(r.requests, trace.size());
    EXPECT_EQ(physical_digest(r), "1ce311898cb043f2");
  }

  // The seams are exercised: writes were off-loaded, and a disk no burst
  // request touches still received a destage inside the burst.
  cfg.obs = ObsSpec::parse("policy");
  cfg.shards = 3;
  obs::RunTrace traced;
  (void)run_experiment(cfg, &traced);
  std::size_t offloads = 0, deadline_destages_in_burst = 0;
  for (const auto& e : traced.events) {
    if (e.kind != obs::Kind::kPolicy) continue;
    offloads += e.code == obs::kPolicyOffload ? 1 : 0;
    const bool untouched = e.value == 2.0 || e.value == 5.0 || e.value == 6.0;
    if (e.code == obs::kPolicyDestage && untouched && e.t > 300.0 &&
        e.t < 303.0) {
      ++deadline_destages_in_burst;
    }
  }
  EXPECT_GT(offloads, 0u);
  EXPECT_GT(deadline_destages_in_burst, 0u);
}

TEST(FleetPipeline, FeederErrorAbortsTheRunAndIsRethrown) {
  // The replayed trace names a file the run's catalog lacks, well past the
  // point where the feeder has every chunk in flight: its catalog lookup
  // throws mid-run, the router and workers must unwind instead of waiting
  // on the feeder forever, and the feeder's own exception surfaces.
  const auto cat = small_files();
  std::vector<workload::FileInfo> more(20);
  for (std::size_t i = 0; i < more.size(); ++i) {
    more[i].id = static_cast<workload::FileId>(i);
    more[i].size = util::mb(1.0);
    more[i].popularity = 1.0 / 20.0;
  }
  Records records;
  add_burst(records, 0.0, 50'000, 0.001, 16);
  records.push(49.9995, 19); // unknown to `cat`
  const workload::Trace trace{workload::FileCatalog{more},
                              std::move(records.times),
                              std::move(records.files)};
  auto cfg = fleet_config(cat, 8);
  cfg.workload = WorkloadSpec::replay(trace);
  for (const std::uint32_t shards : {1u, 3u}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    cfg.shards = shards;
    EXPECT_THROW(run_experiment(cfg), std::out_of_range);
  }
}

} // namespace
} // namespace spindown::sys
