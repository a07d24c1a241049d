// Shard-count bit-identity of the canonical trace stream: the sim-time
// events recorded by a fleet run at any shard count must reproduce the
// trace of the retired single-calendar engine exactly.  The reference is a
// digest of every TraceEvent field (plus the horizon) captured from that
// engine, mirroring the RunResult invariance contract in
// tests/sys/fleet_test.cpp.
#include "obs/trace.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "obs/export.h"
#include "support/physical_digest.h"
#include "sys/fleet.h"
#include "sys/scenario.h"
#include "util/units.h"
#include "workload/catalog.h"

namespace spindown::obs {
namespace {

using test_support::physical_digest;
using test_support::trace_digest;

workload::FileCatalog fleet_catalog(std::size_t n_files = 96) {
  std::vector<workload::FileInfo> files(n_files);
  for (std::size_t i = 0; i < files.size(); ++i) {
    files[i].id = static_cast<workload::FileId>(i);
    files[i].size = util::mb(30.0 + 15.0 * static_cast<double>(i % 5));
    files[i].popularity = 1.0 / static_cast<double>(i + 1);
  }
  return workload::FileCatalog{files};
}

sys::ExperimentConfig fleet_config(const workload::FileCatalog& cat,
                                   std::uint32_t num_disks) {
  sys::ExperimentConfig cfg;
  cfg.catalog = &cat;
  cfg.mapping.resize(cat.size());
  for (std::size_t i = 0; i < cfg.mapping.size(); ++i) {
    cfg.mapping[i] = static_cast<std::uint32_t>(i % num_disks);
  }
  cfg.num_disks = num_disks;
  cfg.workload = sys::WorkloadSpec::poisson(3.0, 250.0);
  cfg.seed = 23;
  cfg.policy = sys::PolicySpec::fixed(8.0); // plenty of power transitions
  cfg.obs = sys::ObsSpec::all();
  cfg.obs.profile = false; // profile samples are wall-clock, not compared
  cfg.obs.metrics_interval_s = 40.0;
  return cfg;
}

/// Runs `cfg` at 1, 2, 4 and 8 shards and checks every trace and result
/// against the single-calendar reference digests.
void expect_matches_reference(sys::ExperimentConfig cfg, std::size_t events,
                              const char* trace_ref, const char* result_ref) {
  for (const std::uint32_t shards : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    cfg.shards = shards;
    RunTrace trace;
    const auto r = sys::run_experiment(cfg, &trace);
    EXPECT_EQ(trace.events.size(), events);
    EXPECT_EQ(trace_digest(trace), trace_ref);
    EXPECT_EQ(physical_digest(r), result_ref);
  }
}

TEST(TraceFleetIdentity, CacheFreeRunMatchesSingleCalendar) {
  const auto cat = fleet_catalog();
  expect_matches_reference(fleet_config(cat, 24), 7473, "93523bc13caae85e",
                           "b87ee925352f6f6a");
}

TEST(TraceFleetIdentity, CacheFreeRouterTrackStaysEmpty) {
  // Without a cache the router emits no hit/miss spans: every event of the
  // canonical stream belongs to a disk track, and the stream still matches
  // the single-calendar reference (16 disks, so 8 shards own 2 each).
  const auto cat = fleet_catalog();
  auto cfg = fleet_config(cat, 16);
  cfg.shards = 4;
  RunTrace trace;
  (void)sys::run_experiment(cfg, &trace);
  ASSERT_FALSE(trace.events.empty());
  for (const auto& e : trace.events) {
    EXPECT_NE(e.track, kRouterTrack);
  }
  expect_matches_reference(cfg, 7063, "e0606c2b813a55ac", "7e6c302e8651fe69");
}

TEST(TraceFleetIdentity, RoutedPathMatchesSingleCalendar) {
  const auto cat = fleet_catalog();
  auto cfg = fleet_config(cat, 24);
  cfg.cache = sys::CacheSpec::lru(util::mb(200.0));

  for (const std::uint32_t shards : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    cfg.shards = shards;
    RunTrace trace;
    const auto r = sys::run_experiment(cfg, &trace);
    bool saw_cache_hit = false;
    for (const auto& e : trace.events) {
      if (e.kind == Kind::kSpan && e.code == kSpanCacheHit) {
        saw_cache_hit = true;
        EXPECT_EQ(e.track, kRouterTrack);
      }
    }
    EXPECT_TRUE(saw_cache_hit) << "scenario must exercise the cache";
    EXPECT_EQ(trace.events.size(), 7033u);
    EXPECT_EQ(trace_digest(trace), "3f1224fa2add9ff3");
    EXPECT_EQ(physical_digest(r), "4b57a375a7c00097");
  }
}

TEST(TraceFleetIdentity, TracedFleetRunMatchesUntracedResult) {
  const auto cat = fleet_catalog();
  auto cfg = fleet_config(cat, 24);
  cfg.shards = 4;

  const auto plain = sys::run_experiment(cfg);
  RunTrace trace;
  const auto traced = sys::run_experiment(cfg, &trace);
  // Tracing is read-only — including the engine's event counter (sampler
  // ticks are subtracted).
  EXPECT_EQ(traced.events, plain.events);
  EXPECT_EQ(physical_digest(traced), physical_digest(plain));
}

TEST(TraceFleetProfile, ProfileSamplesStayOutOfTheCanonicalStream) {
  const auto cat = fleet_catalog();
  auto cfg = fleet_config(cat, 16);
  cfg.obs.profile = true;
  cfg.shards = 4;

  RunTrace trace;
  (void)sys::run_experiment(cfg, &trace);
  EXPECT_FALSE(trace.profile.empty());
  for (const auto& e : trace.events) {
    EXPECT_NE(e.kind, Kind::kProfile);
  }
  bool fill = false, wait = false, replay = false, feed = false;
  for (const auto& e : trace.profile) {
    EXPECT_EQ(e.kind, Kind::kProfile);
    EXPECT_GE(e.value, 0.0);
    fill = fill || e.code == kProfRouterFill;
    wait = wait || e.code == kProfRingWait;
    replay = replay || e.code == kProfWorkerReplay;
    feed = feed || e.code == kProfFeederFill;
    if (e.code == kProfRouterFill) {
      EXPECT_EQ(e.track, kRouterTrack);
    }
    if (e.code == kProfFeederFill) {
      EXPECT_EQ(e.track, kFeederTrack);
    }
  }
  EXPECT_TRUE(fill && wait && replay && feed)
      << "all four pipeline stages must be sampled";
  EXPECT_EQ(trace.shards, 4u);
}

TEST(TraceFleetIdentity, OrchestratedTraceIsByteIdenticalAcrossShards) {
  // The router track carries the cache hit/miss spans (from the feeder's
  // verdicts) and every controller decision, deadline destages included;
  // all of them must land in the same order, and in time order, so the
  // exported file is byte-identical at shards 1 and 4.
  const auto cat = fleet_catalog();
  auto cfg = fleet_config(cat, 12);
  cfg.orch = sys::OrchSpec::parse("redirect+offload:1:60");
  cfg.num_disks = 12 + cfg.orch.log_disks;
  cfg.replicas = 2;
  cfg.cache = sys::CacheSpec::lru(util::mb(300.0));
  cfg.obs = sys::ObsSpec::parse("spans+policy");

  std::string files[2];
  for (const std::uint32_t shards : {1u, 4u}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    cfg.shards = shards;
    RunTrace trace;
    (void)sys::run_experiment(cfg, &trace);
    bool hit = false, offload = false, destage = false;
    double router_t = 0.0;
    std::size_t router_backsteps = 0;
    for (const auto& e : trace.events) {
      hit = hit || (e.kind == Kind::kSpan && e.code == kSpanCacheHit);
      const bool policy = e.kind == Kind::kPolicy;
      offload = offload || (policy && e.code == kPolicyOffload);
      destage = destage || (policy && e.code == kPolicyDestage);
      if (e.track == kRouterTrack) {
        router_backsteps += e.t < router_t ? 1 : 0;
        router_t = e.t;
      }
    }
    EXPECT_TRUE(hit && offload && destage)
        << "scenario must exercise the cache, off-loading and destaging";
    EXPECT_EQ(router_backsteps, 0u) << "router track must be in time order";
    EXPECT_EQ(trace_digest(trace), "7fb1aac8ba72bd76");
    std::ostringstream os;
    write_chrome_trace(trace, os);
    files[shards == 1 ? 0 : 1] = os.str();
  }
  EXPECT_FALSE(files[0].empty());
  EXPECT_EQ(files[0], files[1]);
}

} // namespace
} // namespace spindown::obs
