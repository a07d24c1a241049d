// paper_properties_test.cpp — directional claims of the paper's evaluation,
// asserted on scaled-down workloads so they run in CI time:
//
//   * §6: "power saving decreases with arrival rates and increases with
//     higher allowable constraints on disk loads."
//   * §5.1: batched same-size requests hurt Pack_Disks; Pack_Disks_v
//     disperses them.
//   * Figure 5's normalization: saving relative to always-on is in [0, 1].
#include <gtest/gtest.h>

#include "core/normalize.h"
#include "core/pack_disks.h"
#include "sys/experiment.h"
#include "sys/sweep.h"
#include "workload/catalog.h"
#include "workload/nersc.h"

namespace spindown {
namespace {

const workload::FileCatalog& scaled_catalog() {
  static const workload::FileCatalog cat = [] {
    workload::SyntheticSpec spec = workload::SyntheticSpec::paper_table1();
    spec.n_files = 1200;
    util::Rng rng{7};
    return workload::generate_catalog(spec, rng);
  }();
  return cat;
}

sys::RunResult run_packed(double rate, double load_fraction,
                          std::uint32_t farm, double horizon) {
  core::LoadModel model;
  model.rate = rate;
  model.load_fraction = load_fraction;
  const auto items = core::normalize(scaled_catalog(), model);
  core::PackDisks pack;
  const auto a = pack.allocate(items);
  sys::ExperimentConfig cfg;
  cfg.catalog = &scaled_catalog();
  cfg.mapping = a.disk_of;
  cfg.num_disks = std::max(farm, a.disk_count);
  cfg.workload = sys::WorkloadSpec::poisson(rate, horizon);
  cfg.seed = 17;
  return sys::run_experiment(cfg);
}

TEST(PaperProperties, SavingDecreasesWithArrivalRate) {
  // Figure 2's trend: more load -> more spinning disks -> less saving.
  const auto low = run_packed(0.3, 0.7, 40, 1500.0);
  const auto high = run_packed(2.5, 0.7, 40, 1500.0);
  EXPECT_GT(low.power.saving_vs_always_on,
            high.power.saving_vs_always_on + 0.05);
}

TEST(PaperProperties, HigherLoadConstraintUsesFewerDisks) {
  // Figure 4's left axis: raising L packs tighter, so fewer disks spin.
  core::LoadModel model;
  model.rate = 1.0;
  core::PackDisks pack;
  model.load_fraction = 0.4;
  const auto disks_low_l =
      pack.allocate(core::normalize(scaled_catalog(), model)).disk_count;
  model.load_fraction = 0.9;
  const auto disks_high_l =
      pack.allocate(core::normalize(scaled_catalog(), model)).disk_count;
  EXPECT_LT(disks_high_l, disks_low_l);
}

TEST(PaperProperties, HigherLoadConstraintRaisesResponseTime) {
  // Figure 4's right axis: tighter packing -> longer queues.
  const auto loose = run_packed(1.0, 0.4, 0, 1500.0);
  const auto tight = run_packed(1.0, 0.95, 0, 1500.0);
  EXPECT_LE(tight.power.average_power, loose.power.average_power);
  EXPECT_GT(tight.response.mean(), loose.response.mean());
}

TEST(PaperProperties, SavingAlwaysInUnitInterval) {
  for (double rate : {0.3, 1.0, 2.0}) {
    const auto r = run_packed(rate, 0.7, 30, 800.0);
    EXPECT_GE(r.power.saving_vs_always_on, 0.0) << rate;
    EXPECT_LE(r.power.saving_vs_always_on, 1.0) << rate;
  }
}

TEST(PaperProperties, GroupedPackingDispersesBatches) {
  // Batch-heavy NERSC-like trace: Pack_Disks_4 must cut the tail response
  // time relative to Pack_Disks (the §3.2/§5.1 motivation for the variant).
  workload::NerscSpec spec;
  spec.n_files = 800;
  spec.n_requests = 2400;
  spec.duration_s = 36'000.0; // dense 10-hour window
  spec.batch_fraction = 0.5;  // strongly batchy
  spec.batch_min = 6;
  spec.batch_max = 10;
  spec.mean_size = util::mb(544.0);
  const auto trace = workload::synthesize_nersc(spec);

  core::LoadModel model;
  model.rate = static_cast<double>(spec.n_requests) / spec.duration_s;
  model.load_fraction = 0.8;
  const auto items = core::normalize(trace.catalog(), model);

  auto run_with = [&](core::Allocator& alloc) {
    const auto a = alloc.allocate(items);
    sys::ExperimentConfig cfg;
    cfg.catalog = &trace.catalog();
    cfg.mapping = a.disk_of;
    cfg.num_disks = a.disk_count;
    cfg.workload = sys::WorkloadSpec::replay(trace);
    return sys::run_experiment(cfg);
  };
  core::PackDisks v1;
  core::PackDisks v4{4};
  const auto r1 = run_with(v1);
  const auto r4 = run_with(v4);
  // Dispersion must help the upper tail of response times.
  EXPECT_LT(r4.response.p95(), r1.response.p95());
}

TEST(PaperProperties, ShortThresholdSavesMorePowerButSlower) {
  // Figures 5/6's joint trend on a sparse workload: lowering the idleness
  // threshold saves power and inflates response times.
  workload::NerscSpec spec;
  spec.n_files = 300;
  spec.n_requests = 600;
  spec.duration_s = 100'000.0;
  const auto trace = workload::synthesize_nersc(spec);

  core::LoadModel model;
  model.rate = 0.01;
  model.load_fraction = 0.8;
  const auto items = core::normalize(trace.catalog(), model);
  core::PackDisks pack;
  const auto a = pack.allocate(items);

  auto run_with_threshold = [&](double threshold) {
    sys::ExperimentConfig cfg;
    cfg.catalog = &trace.catalog();
    cfg.mapping = a.disk_of;
    cfg.num_disks = a.disk_count;
    cfg.policy = sys::PolicySpec::fixed(threshold);
    cfg.workload = sys::WorkloadSpec::replay(trace);
    return sys::run_experiment(cfg);
  };
  const auto eager = run_with_threshold(10.0);
  const auto lazy = run_with_threshold(3600.0);
  EXPECT_LT(eager.power.energy, lazy.power.energy);
  EXPECT_GE(eager.response.mean(), lazy.response.mean());
  EXPECT_GT(eager.power.spin_downs, lazy.power.spin_downs);
}

} // namespace
} // namespace spindown
