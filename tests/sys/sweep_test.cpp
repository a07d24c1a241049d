#include "sys/sweep.h"

#include <gtest/gtest.h>

#include "support/physical_digest.h"
#include "util/units.h"

namespace spindown::sys {
namespace {

using test_support::physical_digest;

workload::FileCatalog sweep_catalog() {
  std::vector<workload::FileInfo> files(6);
  for (std::size_t i = 0; i < files.size(); ++i) {
    files[i].id = static_cast<workload::FileId>(i);
    files[i].size = util::mb(100.0);
    files[i].popularity = 1.0 / 6.0;
  }
  return workload::FileCatalog{files};
}

ExperimentConfig config_with_rate(const workload::FileCatalog& cat,
                                  double rate) {
  ExperimentConfig cfg;
  cfg.catalog = &cat;
  cfg.mapping = {0, 0, 1, 1, 2, 2};
  cfg.num_disks = 3;
  cfg.workload = WorkloadSpec::poisson(rate, 150.0);
  cfg.seed = 5;
  return cfg;
}

TEST(RunSweep, EmptyInput) {
  EXPECT_TRUE(run_sweep({}).empty());
}

TEST(RunSweep, ResultsInInputOrder) {
  const auto cat = sweep_catalog();
  std::vector<ExperimentConfig> configs;
  for (double rate : {0.2, 0.5, 1.0, 2.0}) {
    configs.push_back(config_with_rate(cat, rate));
  }
  const auto results = run_sweep(configs);
  ASSERT_EQ(results.size(), 4u);
  // More arrivals at higher rates: counts must be increasing.
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_GT(results[i].requests, results[i - 1].requests);
  }
}

TEST(RunSweep, ParallelMatchesSerial) {
  const auto cat = sweep_catalog();
  std::vector<ExperimentConfig> configs;
  for (double rate : {0.3, 0.7, 1.3}) {
    configs.push_back(config_with_rate(cat, rate));
  }
  const auto serial = run_sweep(configs, 1);
  const auto parallel = run_sweep(configs, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_DOUBLE_EQ(serial[i].power.energy, parallel[i].power.energy);
    EXPECT_EQ(serial[i].requests, parallel[i].requests);
  }
}

TEST(RunSweep, DeterministicAcrossThreadCounts) {
  // Same configs + seeds must produce bit-identical RunResults no matter
  // how the sweep is scheduled.  The grid deliberately includes the
  // adaptive policies and non-stationary workloads: their per-disk state
  // lives inside each run, so nothing may leak across workers.
  const auto cat = sweep_catalog();
  std::vector<ExperimentConfig> configs;
  const std::vector<PolicySpec> policies{
      PolicySpec::break_even(), PolicySpec::randomized(), PolicySpec::ewma(),
      PolicySpec::share(), PolicySpec::slack(10.0)};
  const std::vector<WorkloadSpec> workloads{
      WorkloadSpec::poisson(1.0, 150.0),
      WorkloadSpec::nhpp({{0.0, 2.0}, {50.0, 0.2}}, 150.0, 100.0),
      WorkloadSpec::mmpp({{2.0, 0.1}, {40.0, 80.0}}, 150.0)};
  for (const auto& p : policies) {
    for (const auto& w : workloads) {
      auto cfg = config_with_rate(cat, 1.0);
      cfg.policy = p;
      cfg.workload = w;
      configs.push_back(std::move(cfg));
    }
  }
  const auto serial = run_sweep(configs, 1);
  for (const unsigned threads : {2u, 8u}) {
    const auto parallel = run_sweep(configs, threads);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      SCOPED_TRACE("config " + std::to_string(i) + " threads " +
                   std::to_string(threads));
      EXPECT_EQ(physical_digest(serial[i]), physical_digest(parallel[i]));
    }
  }
}

TEST(RunSweep, DeterministicAcrossShardCounts) {
  // The same adaptive × non-stationary grid, but varying the *intra-run*
  // parallelism: each config run with the disks sharded 1/2/4/8 ways
  // must reproduce, bit for bit, the digest captured from the retired
  // single-calendar engine.  (Shard counts above the farm size clamp —
  // still a valid configuration.)
  const auto cat = sweep_catalog();
  std::vector<ExperimentConfig> configs;
  const std::vector<PolicySpec> policies{
      PolicySpec::break_even(), PolicySpec::randomized(), PolicySpec::ewma(),
      PolicySpec::share(), PolicySpec::slack(10.0)};
  const std::vector<WorkloadSpec> workloads{
      WorkloadSpec::poisson(1.0, 150.0),
      WorkloadSpec::nhpp({{0.0, 2.0}, {50.0, 0.2}}, 150.0, 100.0),
      WorkloadSpec::mmpp({{2.0, 0.1}, {40.0, 80.0}}, 150.0)};
  for (const auto& p : policies) {
    for (const auto& w : workloads) {
      auto cfg = config_with_rate(cat, 1.0);
      cfg.policy = p;
      cfg.workload = w;
      configs.push_back(std::move(cfg));
    }
  }
  // One row per policy, one column per workload (poisson, nhpp, mmpp).
  const std::vector<std::string> single_calendar{
      "d892aa5a7b496179", "4a514c4717144e71", "0ef14d8449335edc",  // break-even
      "3971dd5cccd4d0fa", "042e50e6052f565e", "56f50952718e1c98",  // randomized
      "d892aa5a7b496179", "4a514c4717144e71", "0ef14d8449335edc",  // ewma
      "d892aa5a7b496179", "2cc560e1fb7c585f", "0ef14d8449335edc",  // share
      "d892aa5a7b496179", "4a514c4717144e71", "0ef14d8449335edc"}; // slack
  ASSERT_EQ(configs.size(), single_calendar.size());
  for (const std::uint32_t shards : {1u, 2u, 4u, 8u}) {
    auto sharded_configs = configs;
    for (auto& cfg : sharded_configs) cfg.shards = shards;
    const auto sharded = run_sweep(sharded_configs, 2);
    ASSERT_EQ(sharded.size(), configs.size());
    for (std::size_t i = 0; i < sharded.size(); ++i) {
      SCOPED_TRACE("config " + std::to_string(i) + " shards " +
                   std::to_string(shards));
      EXPECT_EQ(physical_digest(sharded[i]), single_calendar[i]);
    }
  }
}

TEST(RunSweep, PropagatesWorkerExceptions) {
  const auto cat = sweep_catalog();
  auto bad = config_with_rate(cat, 1.0);
  bad.catalog = nullptr; // run_experiment will throw
  std::vector<ExperimentConfig> configs{config_with_rate(cat, 0.5), bad};
  EXPECT_THROW(run_sweep(configs), std::invalid_argument);
}

TEST(RunSweep, LowestIndexErrorWinsAcrossSchedules) {
  // Two failing configs with distinguishable messages: the rethrown error
  // must always be the one for the lowest sweep index, regardless of which
  // worker hits its exception first.  (Regression: the old path kept
  // whichever error locked the mutex first, so the surfaced diagnostic
  // changed run to run.)
  const auto cat = sweep_catalog();
  auto bad_mapping = config_with_rate(cat, 0.5);
  bad_mapping.mapping = {0, 0, 1, 1, 2, 9}; // disk 9 does not exist
  auto bad_catalog = config_with_rate(cat, 0.5);
  bad_catalog.catalog = nullptr;
  const std::vector<ExperimentConfig> configs{
      config_with_rate(cat, 0.3), bad_mapping, config_with_rate(cat, 0.4),
      bad_catalog};
  for (int rep = 0; rep < 10; ++rep) {
    for (const unsigned threads : {2u, 4u, 8u}) {
      SCOPED_TRACE("rep " + std::to_string(rep) + " threads " +
                   std::to_string(threads));
      try {
        run_sweep(configs, threads);
        FAIL() << "expected run_sweep to throw";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string{e.what()}.find("mapping references disk"),
                  std::string::npos)
            << "got the index-3 error instead of the index-1 error: "
            << e.what();
      }
    }
  }
}

} // namespace
} // namespace spindown::sys
