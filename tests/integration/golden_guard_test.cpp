// golden_guard_test.cpp — byte-exact regression guard for the default
// (FCFS) request path.
//
// The golden constants below were captured from the pre-scheduler simulator
// (the seed's monolithic FCFS Disk) immediately before the I/O-scheduling
// refactor, with the exact sweep reproduced here.  With
// SchedulerSpec::fcfs() — the default — the refactored path must reproduce
// every number bit for bit: same event order, same energy integral, same
// response summary.  Any intentional change to default-path semantics must
// re-derive these constants and say so in the commit.
//
// The three configurations cover the branches of the default path:
// break-even spin-down, an aggressive fixed threshold (spin-up churn), and
// never-spin-down behind an LRU front cache (cache hits bypass the disks).
#include <gtest/gtest.h>

#include <vector>

#include "core/normalize.h"
#include "core/pack_disks.h"
#include "sys/experiment.h"
#include "sys/sweep.h"
#include "workload/catalog.h"

namespace spindown::sys {
namespace {

struct Golden {
  std::uint64_t requests;
  std::uint64_t served_sum; ///< completed at the horizon snapshot
  double energy;
  double saving;
  std::uint64_t spin_ups;
  std::uint64_t spin_downs;
  std::uint64_t resp_count;
  double resp_mean;
  double resp_max;
  double resp_p99;
  std::uint64_t cache_hits;
};

// Captured 2026-07-29 from the pre-refactor simulator (see file comment).
// Re-derived 2026-08-07 for the fleet-sharding PR: result aggregation became
// canonical (response moments folded hits-first then per-disk in disk-id
// order instead of completion order; always-on energy summed per disk
// instead of farm-total), so `saving` and `resp_mean` moved by a few ulps.
// Event order, per-request response times, energy integrals, counts, and
// the histogram (max/p99) are bit-identical to the pre-refactor capture.
constexpr Golden kGolden[3] = {
    // break-even policy, no cache
    {979, 850, 333869.73696331761, -0.012003370049414652, 36, 36, 979,
     87.484344294067441, 445.03087415307198, 372.42100000000005, 0},
    // fixed 10 s threshold, no cache
    {979, 841, 334767.04675768159, -0.01672900557172019, 114, 116, 979,
     93.809647009646525, 445.03087415307198, 373.92100000000005, 0},
    // never spin down, 30 GB LRU front cache
    {979, 828, 328848.00923895644, 2.2204460492503131e-16, 0, 0, 979,
     79.066762766230838, 416.47659966191691, 362.92100000000005, 31},
};

TEST(GoldenGuard, FcfsDefaultReproducesPreRefactorSweepExactly) {
  workload::SyntheticSpec spec = workload::SyntheticSpec::paper_table1();
  spec.n_files = 600;
  util::Rng rng{7};
  const auto cat = workload::generate_catalog(spec, rng);

  core::LoadModel model;
  model.rate = 1.2;
  model.load_fraction = 0.9;
  core::PackDisks pack;
  const auto a = pack.allocate(core::normalize(cat, model));
  ASSERT_EQ(a.disk_count, 34u); // layout itself is part of the contract

  std::vector<ExperimentConfig> configs;
  for (int i = 0; i < 3; ++i) {
    ExperimentConfig cfg;
    cfg.catalog = &cat;
    cfg.mapping = a.disk_of;
    cfg.num_disks = a.disk_count;
    cfg.workload = WorkloadSpec::poisson(1.2, 800.0);
    cfg.seed = 42;
    if (i == 0) cfg.policy = PolicySpec::break_even();
    if (i == 1) cfg.policy = PolicySpec::fixed(10.0);
    if (i == 2) {
      cfg.policy = PolicySpec::never();
      cfg.cache = CacheSpec::lru(util::gb(30.0));
    }
    configs.push_back(std::move(cfg));
  }
  const auto results = run_sweep(configs, 1);
  ASSERT_EQ(results.size(), 3u);

  for (int i = 0; i < 3; ++i) {
    SCOPED_TRACE("config " + std::to_string(i));
    const auto& r = results[i];
    const auto& g = kGolden[i];
    EXPECT_EQ(r.requests, g.requests);
    std::uint64_t served = 0;
    for (const auto& m : r.per_disk) served += m.served;
    EXPECT_EQ(served, g.served_sum);
    EXPECT_EQ(r.completed_at_horizon, g.served_sum);
    // Horizon accounting: every request is exactly one of completed,
    // in flight, or a cache hit at the snapshot.
    EXPECT_EQ(r.completed_at_horizon + r.in_flight_at_horizon + r.cache.hits,
              g.requests);
    EXPECT_DOUBLE_EQ(r.power.energy, g.energy);
    EXPECT_DOUBLE_EQ(r.power.saving_vs_always_on, g.saving);
    EXPECT_EQ(r.power.spin_ups, g.spin_ups);
    EXPECT_EQ(r.power.spin_downs, g.spin_downs);
    EXPECT_EQ(r.response.count(), g.resp_count);
    EXPECT_DOUBLE_EQ(r.response.mean(), g.resp_mean);
    EXPECT_DOUBLE_EQ(r.response.max(), g.resp_max);
    EXPECT_DOUBLE_EQ(r.response.p99(), g.resp_p99);
    EXPECT_EQ(r.cache.hits, g.cache_hits);
  }
}

} // namespace
} // namespace spindown::sys
