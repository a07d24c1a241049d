// scenario_golden_test.cpp — the scenario path must be a pure re-spelling
// of the programmatic path: running a ScenarioSpec string (exactly what
// examples/spindown_run.cpp does with --scenario) is bit-exact with the
// equivalent hand-built run_experiment() call, on the same configuration
// the FCFS golden guard pins.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "core/normalize.h"
#include "core/pack_disks.h"
#include "support/physical_digest.h"
#include "sys/scenario.h"
#include "workload/catalog.h"
#include "workload/trace.h"

namespace spindown::sys {
namespace {

void expect_bit_exact(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.completed_at_horizon, b.completed_at_horizon);
  EXPECT_EQ(a.in_flight_at_horizon, b.in_flight_at_horizon);
  EXPECT_DOUBLE_EQ(a.power.energy, b.power.energy);
  EXPECT_DOUBLE_EQ(a.power.always_on_energy, b.power.always_on_energy);
  EXPECT_DOUBLE_EQ(a.power.saving_vs_always_on, b.power.saving_vs_always_on);
  EXPECT_EQ(a.power.spin_ups, b.power.spin_ups);
  EXPECT_EQ(a.power.spin_downs, b.power.spin_downs);
  EXPECT_EQ(a.response.count(), b.response.count());
  EXPECT_DOUBLE_EQ(a.response.mean(), b.response.mean());
  EXPECT_DOUBLE_EQ(a.response.max(), b.response.max());
  EXPECT_DOUBLE_EQ(a.response.p99(), b.response.p99());
  EXPECT_EQ(a.cache.hits, b.cache.hits);
  ASSERT_EQ(a.per_disk.size(), b.per_disk.size());
  for (std::size_t d = 0; d < a.per_disk.size(); ++d) {
    EXPECT_EQ(a.per_disk[d].served, b.per_disk[d].served);
    EXPECT_EQ(a.per_disk[d].spin_ups, b.per_disk[d].spin_ups);
    for (std::size_t st = 0; st < a.per_disk[d].state_time.size(); ++st) {
      EXPECT_DOUBLE_EQ(a.per_disk[d].state_time[st],
                       b.per_disk[d].state_time[st]);
    }
  }
}

TEST(ScenarioGolden, ScenarioStringMatchesProgrammaticGoldenConfig) {
  // The golden guard's configuration (golden_guard_test.cpp), as a string.
  const auto scenario = ScenarioSpec::parse(
      "catalog=table1(600) placement=pack load=0.9 "
      "workload=poisson(1.2,800) seed=42");

  // The pre-ScenarioSpec way: every bench built this by hand.
  workload::SyntheticSpec spec = workload::SyntheticSpec::paper_table1();
  spec.n_files = 600;
  util::Rng rng{7};
  const auto cat = workload::generate_catalog(spec, rng);
  core::LoadModel model;
  model.rate = 1.2;
  model.load_fraction = 0.9;
  core::PackDisks pack;
  const auto a = pack.allocate(core::normalize(cat, model));
  ASSERT_EQ(a.disk_count, 34u); // the layout the golden guard asserts

  ExperimentConfig cfg;
  cfg.catalog = &cat;
  cfg.mapping = a.disk_of;
  cfg.num_disks = a.disk_count;
  cfg.workload = WorkloadSpec::poisson(1.2, 800.0);
  cfg.seed = 42;

  expect_bit_exact(run_scenario(scenario), run_experiment(cfg));

  // The cached/LRU golden branch too.
  cfg.policy = PolicySpec::never();
  cfg.cache = CacheSpec::lru(util::gb(30.0));
  expect_bit_exact(
      run_scenario(scenario.with("policy", "never").with("cache", "lru:30g")),
      run_experiment(cfg));
}

TEST(ScenarioGolden, TraceByPathMatchesProgrammaticReplay) {
  // Save a small synthetic trace, then drive it via the parseable
  // trace:<stem> catalog — the satellite closing WorkloadSpec's trace hole.
  workload::SyntheticSpec spec = workload::SyntheticSpec::paper_table1();
  spec.n_files = 40;
  util::Rng rng{3};
  const auto cat = workload::generate_catalog(spec, rng);
  std::vector<double> times;
  std::vector<workload::FileId> files;
  util::Rng arrivals{11};
  double t = 0.0;
  for (int i = 0; i < 120; ++i) {
    t += arrivals.exponential(0.05);
    times.push_back(t);
    files.push_back(static_cast<workload::FileId>(
        arrivals.uniform_int(0, spec.n_files - 1)));
  }
  const workload::Trace trace{cat, times, files};

  const auto stem = (std::filesystem::temp_directory_path() /
                     "spindown_scenario_golden_tmp")
                        .string();
  trace.save(stem);

  const auto scenario = ScenarioSpec::parse(
      "catalog=trace:" + stem +
      " placement=pack load=0.8 policy=fixed:120 workload=replay seed=5");

  // Programmatic equivalent over the *loaded* trace (CSV round-trips times
  // through text, so the loaded copy is the ground truth for both paths).
  const auto loaded = workload::Trace::load(stem);
  core::LoadModel model;
  model.rate = static_cast<double>(loaded.size()) /
               std::max(1.0, loaded.duration());
  model.load_fraction = 0.8;
  core::PackDisks pack;
  const auto a = pack.allocate(core::normalize(loaded.catalog(), model));
  ExperimentConfig cfg;
  cfg.catalog = &loaded.catalog();
  cfg.mapping = a.disk_of;
  cfg.num_disks = a.disk_count;
  cfg.policy = PolicySpec::fixed(120.0);
  cfg.workload = WorkloadSpec::replay(loaded);
  cfg.seed = 5;

  expect_bit_exact(run_scenario(scenario), run_experiment(cfg));

  std::filesystem::remove(stem + ".catalog.csv");
  std::filesystem::remove(stem + ".trace.csv");
}

/// FNV-1a of a resolved scenario's placement: the disk count, then the disk
/// of every file.
std::string placement_digest(const ResolvedScenario& r) {
  test_support::Fnv1a h;
  h.add(std::uint64_t{r.config.num_disks});
  for (const auto d : r.config.mapping) h.add(std::uint64_t{d});
  return h.hex();
}

TEST(ScenarioGolden, BenchmarkPlacementsPinned) {
  // The two perfbench workloads' placements, pinned from a known-good
  // build: Pack_Disks over 200 000 NERSC files and 120 000 Table 1 files,
  // instances far larger than the packing equivalence cases reach.
  const auto nersc = resolve_scenario(ScenarioSpec::parse(
      "catalog=nersc(200000,2000000,20090531) placement=pack load=0.8 "
      "cache=lru:16g policy=break-even workload=replay seed=1"));
  EXPECT_EQ(nersc.config.num_disks, 221u);
  EXPECT_EQ(placement_digest(nersc), "ecfbc89cb1bbd13c");

  const auto diurnal = resolve_scenario(ScenarioSpec::parse(
      "catalog=table1(120000,1) placement=pack load=0.7 policy=ewma "
      "cache=lru:16g workload=nhpp(0:6;9000:0.16,540000,18000) "
      "replicas=2 orch=redirect+offload:4 seed=1 shards=3"));
  EXPECT_EQ(placement_digest(diurnal), "c626daa73e9c7616");
}

} // namespace
} // namespace spindown::sys
