// end_to_end_test.cpp — whole-pipeline integration: catalog -> items ->
// allocation -> simulation -> reports, plus trace persistence round trips.
#include <gtest/gtest.h>

#include <filesystem>

#include "core/normalize.h"
#include "core/pack_disks.h"
#include "core/random_alloc.h"
#include "sys/experiment.h"
#include "workload/catalog.h"
#include "workload/nersc.h"

namespace spindown {
namespace {

class ScaledPaperWorkload : public ::testing::Test {
protected:
  static constexpr std::size_t kFiles = 1500;
  static const workload::FileCatalog& catalog() {
    static const workload::FileCatalog cat = [] {
      workload::SyntheticSpec spec = workload::SyntheticSpec::paper_table1();
      spec.n_files = kFiles;
      util::Rng rng{1};
      return workload::generate_catalog(spec, rng);
    }();
    return cat;
  }
};

TEST_F(ScaledPaperWorkload, PackDisksBeatsRandomOnEnergy) {
  // The paper's headline: on a Zipf workload with spin-down disks, packing
  // hot files together saves substantial energy versus random placement.
  core::LoadModel model;
  model.rate = 1.0;
  model.load_fraction = 0.7;
  const auto items = core::normalize(catalog(), model);

  core::PackDisks pack;
  const auto packed = pack.allocate(items);
  const std::uint32_t farm = packed.disk_count * 3;
  core::RandomAllocator rnd{farm, 42};
  const auto random = rnd.allocate(items);

  auto run = [&](const core::Assignment& a) {
    sys::ExperimentConfig cfg;
    cfg.catalog = &catalog();
    cfg.mapping = a.disk_of;
    cfg.num_disks = farm;
    cfg.workload = sys::WorkloadSpec::poisson(model.rate, 2000.0);
    cfg.seed = 9;
    return sys::run_experiment(cfg);
  };
  const auto pack_run = run(packed);
  const auto rnd_run = run(random);

  EXPECT_LT(pack_run.power.energy, rnd_run.power.energy);
  // Shape check (Figure 2's low-R regime): the saving is substantial.
  const double saving = 1.0 - pack_run.power.energy / rnd_run.power.energy;
  EXPECT_GT(saving, 0.25);
  // Both served everything.
  EXPECT_EQ(pack_run.response.count(), pack_run.requests);
  EXPECT_EQ(rnd_run.response.count(), rnd_run.requests);
}

TEST_F(ScaledPaperWorkload, PackedDisksRespectLoadConstraint) {
  core::LoadModel model;
  model.rate = 1.5;
  model.load_fraction = 0.6;
  const auto items = core::normalize(catalog(), model);
  core::PackDisks pack;
  const auto a = pack.allocate(items);
  for (const auto& d : core::disk_totals(a, items)) {
    EXPECT_LE(d.s, 1.0 + 1e-9);
    EXPECT_LE(d.l, 1.0 + 1e-9);
  }
}

TEST(EndToEnd, NerscTraceRoundTripPreservesSimulation) {
  workload::NerscSpec spec;
  spec.n_files = 400;
  spec.n_requests = 700;
  spec.duration_s = 40'000.0;
  const auto trace = workload::synthesize_nersc(spec);

  const auto stem = std::filesystem::temp_directory_path() / "e2e_nersc";
  trace.save(stem);
  const auto loaded = workload::Trace::load(stem);
  std::filesystem::remove(stem.string() + ".catalog.csv");
  std::filesystem::remove(stem.string() + ".trace.csv");

  auto run = [](const workload::Trace& t) {
    core::LoadModel model;
    model.rate = std::max(0.01, static_cast<double>(t.size()) / t.duration());
    model.load_fraction = 0.8;
    const auto items = core::normalize(t.catalog(), model);
    core::PackDisks pack;
    const auto a = pack.allocate(items);
    sys::ExperimentConfig cfg;
    cfg.catalog = &t.catalog();
    cfg.mapping = a.disk_of;
    cfg.num_disks = a.disk_count;
    cfg.workload = sys::WorkloadSpec::replay(t);
    return sys::run_experiment(cfg);
  };
  const auto original = run(trace);
  const auto replayed = run(loaded);
  EXPECT_EQ(original.requests, replayed.requests);
  // Times and popularities survive the CSV round trip bit for bit, so the
  // packing and the replay are the same.
  EXPECT_EQ(original.power.energy, replayed.power.energy);
  EXPECT_EQ(original.response.mean(), replayed.response.mean());
  EXPECT_EQ(original.power.spin_ups, replayed.power.spin_ups);
}

} // namespace
} // namespace spindown
