// fleet_orch_test.cpp — orchestration at fleet scale: shard bit-identity
// with every mechanism live, the replicas-without-orch inertness contract,
// and scenario-string resolution of the orch/replica keys.
#include "sys/fleet.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "support/physical_digest.h"
#include "sys/scenario.h"
#include "util/units.h"

namespace spindown::sys {
namespace {

workload::FileCatalog fleet_catalog(std::size_t n_files = 12) {
  std::vector<workload::FileInfo> files(n_files);
  for (std::size_t i = 0; i < files.size(); ++i) {
    files[i].id = static_cast<workload::FileId>(i);
    files[i].size = util::mb(50.0 + 10.0 * static_cast<double>(i % 4));
    files[i].popularity = 1.0 / static_cast<double>(n_files);
  }
  return workload::FileCatalog{files};
}

/// A 6-data-disk fleet with orchestration fully on: one log disk appended
/// (num_disks = 7), 2-way replication, redirect + offload.
ExperimentConfig orch_config(const workload::FileCatalog& cat) {
  ExperimentConfig cfg;
  cfg.catalog = &cat;
  cfg.mapping.resize(cat.size());
  for (std::size_t i = 0; i < cfg.mapping.size(); ++i) {
    cfg.mapping[i] = static_cast<std::uint32_t>(i % 6);
  }
  cfg.orch = OrchSpec::parse("redirect+offload:1:120");
  cfg.num_disks = 6 + cfg.orch.log_disks;
  cfg.replicas = 2;
  cfg.workload = WorkloadSpec::poisson(0.8, 200.0);
  cfg.seed = 17;
  return cfg;
}

/// Every physical field of two RunResults must agree bitwise (same contract
/// as tests/sys/fleet_test.cpp; `events` deliberately absent).
void expect_same_physical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(test_support::physical_digest(a), test_support::physical_digest(b));
}

TEST(OrchFleet, BitIdenticalAcrossShardCountsWithEveryMechanismOn) {
  // The tentpole contract extended to orchestration: replica-aware
  // redirection + write off-loading (destage deadline 120 s, well inside
  // the 200 s horizon), crossed with a bursty workload and a cache, must
  // stay bit-identical at any shard count.
  const auto cat = fleet_catalog();
  const std::vector<WorkloadSpec> workloads{
      WorkloadSpec::poisson(0.8, 200.0),
      WorkloadSpec::mmpp({{2.0, 0.1}, {30.0, 60.0}}, 200.0)};
  const std::vector<CacheSpec> caches{CacheSpec::none(),
                                      CacheSpec::lru(util::mb(200.0))};
  for (const auto& w : workloads) {
    for (const auto& c : caches) {
      auto cfg = orch_config(cat);
      cfg.workload = w;
      cfg.cache = c;
      cfg.shards = 1;
      const auto baseline = run_experiment(cfg);
      for (const std::uint32_t shards : {2u, 4u, 8u}) {
        SCOPED_TRACE("workload " + w.spec() + " cache " + c.spec() +
                     " shards " + std::to_string(shards));
        cfg.shards = shards;
        expect_same_physical(baseline, run_experiment(cfg));
      }
    }
  }
}

TEST(OrchFleet, ForegroundStatsExcludeBackgroundDestages) {
  // Off-loading reroutes and destages I/O but never invents or drops a
  // foreground request: request and response counts match the orch-off run
  // on the identical arrival stream, and the always-on log disk serves the
  // absorbed writes without contributing response samples of its own
  // beyond those foreground services.
  const auto cat = fleet_catalog();
  auto on = orch_config(cat);
  const auto with_orch = run_experiment(on);

  ExperimentConfig off = on;
  off.orch = OrchSpec::off();
  off.num_disks = 6;
  off.replicas = 1;
  const auto without = run_experiment(off);

  EXPECT_EQ(with_orch.requests, without.requests);
  EXPECT_EQ(with_orch.response.count(), without.response.count());
  std::uint64_t foreground = 0;
  for (const auto& d : with_orch.per_disk) foreground += d.response.count();
  EXPECT_EQ(foreground, with_orch.response.count());
}

TEST(OrchFleet, ReplicasWithoutOrchestrationAreInert) {
  // Replica copies are laid out after the primary extents, so a run that
  // carries replicas=2 but no orchestration is byte-for-byte the
  // replicas=1 run: nothing reads the copies, nothing moved the originals.
  const auto cat = fleet_catalog();
  auto plain = orch_config(cat);
  plain.orch = OrchSpec::off();
  plain.num_disks = 6;
  plain.replicas = 1;
  const auto baseline = run_experiment(plain);

  auto replicated = plain;
  replicated.replicas = 2;
  expect_same_physical(baseline, run_experiment(replicated));
}

TEST(OrchFleet, ScenarioStringDrivesTheWholeStack) {
  // The acceptance shape: one scenario string turns everything on.
  const auto spec = ScenarioSpec::parse(
      "catalog=table1(400,5) load=0.9 workload=poisson(1,200) replicas=2 "
      "orch=redirect+offload:2:120");
  const auto resolved = resolve_scenario(spec);
  const auto& cfg = resolved.config;
  EXPECT_TRUE(cfg.orch.enabled());
  EXPECT_TRUE(cfg.orch.redirect);
  EXPECT_TRUE(cfg.orch.offload);
  EXPECT_EQ(cfg.orch.log_disks, 2u);
  EXPECT_DOUBLE_EQ(cfg.orch.destage_deadline_s, 120.0);
  EXPECT_EQ(cfg.replicas, 2u);

  // The log tier appends to whatever the placement allocated.
  const auto base = resolve_scenario(spec.with("orch", "redirect"));
  EXPECT_EQ(cfg.num_disks, base.config.num_disks + 2);

  // And the string-addressed run obeys the same shard-identity contract.
  auto one = cfg;
  one.shards = 1;
  auto four = cfg;
  four.shards = 4;
  expect_same_physical(run_experiment(one), run_experiment(four));
}

} // namespace
} // namespace spindown::sys
