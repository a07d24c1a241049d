// future_work.cpp — the paper's §6 future-work directions, implemented and
// measured.
//
//   [1] Size-segregated allocation: "restricting the types of files that are
//       allocated to the same disk" — SegregatedPackDisks vs Pack_Disks on a
//       workload where small hot files share disks with 20 GB archives; the
//       win shows up in the response-time tail, the cost in extra disks.
//   [2] MAID baseline (related work [4]): always-on cache disks holding the
//       hottest files vs Pack_Disks' allocation-only approach, same farm.
//   [3] Semi-dynamic reorganization under popularity drift (§1/§6):
//       static placement vs periodic re-packing with migration costs.
#include <iostream>

#include "bench_common.h"
#include "core/maid.h"
#include "core/normalize.h"
#include "core/pack_disks.h"
#include "core/pack_segregated.h"
#include "paper_workload.h"
#include "sys/phased.h"
#include "sys/scenario.h"

int main(int argc, char** argv) {
  using namespace spindown;
  const auto opts = bench::BenchOptions::parse(argc, argv);
  bench::print_header("Future-work features (§6) measured",
                      "size segregation, MAID comparison, reorganization");
  auto csv = opts.csv();
  if (csv) csv->write_row({"study", "config", "metric", "value"});

  // ---- [1] size segregation --------------------------------------------
  {
    std::cout
        << "[1] size-class segregation (Table 1 workload, R=2, L=0.7)\n\n";
    const auto catalog = bench::table1_catalog(opts.seed, 20'000);
    core::LoadModel model;
    model.rate = 2.0;
    model.load_fraction = 0.7;
    const auto items = core::normalize(catalog, model);

    util::TablePrinter table{{"allocator", "disks", "mean resp (s)",
                              "p95 (s)", "p99 (s)", "avg power (W)"}};
    for (const std::uint32_t k : {1u, 2u, 4u, 8u}) {
      const auto a = core::SegregatedPackDisks{k}.allocate(items);
      const auto placement = sys::PlacementSpec::segregated(k).spec();
      sys::ExperimentConfig cfg;
      cfg.catalog = &catalog;
      cfg.mapping = a.disk_of;
      cfg.num_disks = a.disk_count;
      cfg.workload = sys::WorkloadSpec::poisson(model.rate, 3000.0);
      cfg.seed = opts.seed;
      const auto r = sys::run_experiment(cfg);
      table.row(placement, a.disk_count,
                util::format_double(r.response.mean(), 2),
                util::format_double(r.response.p95(), 2),
                util::format_double(r.response.p99(), 2),
                util::format_double(r.power.average_power, 1));
      if (csv) {
        csv->row("segregation", placement, "p99_s", r.response.p99());
        csv->row("segregation", placement, "disks", a.disk_count);
      }
    }
    table.print(std::cout);
    std::cout << "(segregating size classes trims the tail at the cost of "
                 "extra disks)\n\n";
  }

  // ---- [2] MAID comparison ----------------------------------------------
  {
    std::cout << "[2] MAID vs Pack_Disks (same farm, skewed reads)\n\n";
    const auto catalog = bench::table1_catalog(opts.seed + 1, 20'000);
    core::LoadModel model;
    model.rate = 1.0;
    model.load_fraction = 0.7;
    const auto items = core::normalize(catalog, model);
    core::PackDisks pack;
    const auto packed = pack.allocate(items);

    // MAID gets the same total spindle count: a few cache disks plus data
    // disks; Pack_Disks uses its own allocation on that farm.
    const std::uint32_t farm = packed.disk_count + 8;
    const std::uint32_t cache_disks = 4;
    const auto maid = core::build_maid(catalog, cache_disks,
                                       farm - cache_disks,
                                       model.disk.capacity);

    util::TablePrinter table{{"system", "disks", "saving", "mean resp (s)",
                              "p95 (s)", "spin-ups"}};
    using PolicyOverrides =
        std::vector<std::pair<std::uint32_t, sys::PolicySpec>>;
    auto run_mapping = [&](std::vector<std::uint32_t> mapping,
                           std::uint32_t n_disks, PolicyOverrides overrides) {
      sys::ExperimentConfig cfg;
      cfg.catalog = &catalog;
      cfg.mapping = std::move(mapping);
      cfg.num_disks = n_disks;
      cfg.policy_overrides = std::move(overrides);
      cfg.workload = sys::WorkloadSpec::poisson(model.rate, 3000.0);
      cfg.seed = opts.seed;
      return sys::run_experiment(cfg);
    };

    const auto r_pack = run_mapping(packed.disk_of, farm, {});
    std::vector<std::pair<std::uint32_t, sys::PolicySpec>> maid_policies;
    for (std::uint32_t d = 0; d < maid.cache_disks; ++d) {
      maid_policies.emplace_back(d, sys::PolicySpec::never());
    }
    const auto r_maid =
        run_mapping(maid.mapping, maid.total_disks, std::move(maid_policies));

    table.row("pack_disks", packed.disk_count,
              util::format_double(r_pack.power.saving_vs_always_on, 3),
              util::format_double(r_pack.response.mean(), 2),
              util::format_double(r_pack.response.p95(), 2),
              r_pack.power.spin_ups);
    table.row("maid (4 cache disks)", maid.total_disks,
              util::format_double(r_maid.power.saving_vs_always_on, 3),
              util::format_double(r_maid.response.mean(), 2),
              util::format_double(r_maid.response.p95(), 2),
              r_maid.power.spin_ups);
    table.print(std::cout);
    std::cout << "(MAID's cache absorbs "
              << util::format_double(100.0 * maid.cached_popularity, 1)
              << "% of requests; Pack_Disks needs no replicas)\n\n";
    if (csv) {
      csv->row("maid", "pack_disks", "saving",
               r_pack.power.saving_vs_always_on);
      csv->row("maid", "maid", "saving", r_maid.power.saving_vs_always_on);
    }
  }

  // ---- [3] reorganization under drift ------------------------------------
  {
    std::cout << "[3] semi-dynamic reorganization under popularity drift\n\n";
    workload::SyntheticSpec spec = workload::SyntheticSpec::paper_table1();
    spec.n_files = 600;
    util::Rng rng{opts.seed + 2};
    const auto catalog = workload::generate_catalog(spec, rng);

    // Stable-but-tight regime: the initial packing runs every disk near the
    // load cap, so a drifted popularity overloads some disks unless the
    // placement adapts.  (Higher request rates saturate both strategies and
    // show nothing.)
    sys::PhasedConfig cfg;
    cfg.catalog = &catalog;
    cfg.model.rate = 0.5;
    cfg.model.load_fraction = 0.65;
    cfg.windows = opts.full ? 10 : 6;
    cfg.window_s = 4000.0;
    cfg.drift_per_window = 0.1;
    cfg.count_decay = 0.3;
    cfg.seed = opts.seed;

    cfg.reorganize = false;
    const auto fixed = sys::run_phased(cfg);
    cfg.reorganize = true;
    const auto adaptive = sys::run_phased(cfg);

    util::TablePrinter table{{"strategy", "total energy (MJ)",
                              "migrated", "mean resp (s)", "p95 (s)"}};
    table.row("static placement",
              util::format_double(fixed.total_energy / 1e6, 2), "-",
              util::format_double(fixed.response.mean(), 2),
              util::format_double(fixed.response.p95(), 2));
    table.row("reorganize each window",
              util::format_double(adaptive.total_energy / 1e6, 2),
              util::format_bytes(adaptive.migrated_bytes),
              util::format_double(adaptive.response.mean(), 2),
              util::format_double(adaptive.response.p95(), 2));
    table.print(std::cout);
    std::cout << "(drift 10%/window; migration energy "
              << util::format_double(adaptive.migration_energy / 1e6, 2)
              << " MJ is included in the adaptive total)\n";
    if (csv) {
      csv->row("reorg", "static", "mean_resp_s", fixed.response.mean());
      csv->row("reorg", "adaptive", "mean_resp_s", adaptive.response.mean());
    }
  }
  return 0;
}
