// future_work.cpp — the paper's §6 future-work directions, implemented and
// measured.
//
//   [1] Size-segregated allocation: "restricting the types of files that are
//       allocated to the same disk" — SegregatedPackDisks vs Pack_Disks on a
//       workload where small hot files share disks with 20 GB archives; the
//       win shows up in the response-time tail, the cost in extra disks.
//   [2] MAID baseline (related work [4]): always-on cache disks holding the
//       hottest files vs Pack_Disks' allocation-only approach, same farm.
//
// Every row is a ScenarioSpec; the line under each table re-runs that row
// with `spindown_run --scenario`.
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "paper_workload.h"

int main(int argc, char** argv) {
  using namespace spindown;
  const auto opts = bench::BenchOptions::parse(argc, argv);
  bench::print_header("Future-work features (§6) measured",
                      "size segregation, MAID comparison");
  auto csv = opts.csv();
  if (csv) csv->write_row({"study", "config", "metric", "value"});

  // ---- [1] size segregation --------------------------------------------
  {
    std::cout
        << "[1] size-class segregation (Table 1 workload, R=2, L=0.7)\n\n";
    const auto base = sys::ScenarioSpec::parse(
        "catalog=table1(20000) load=0.7 workload=poisson(2,3000) seed=" +
        std::to_string(opts.seed));
    std::vector<sys::ScenarioSpec> specs;
    for (const char* k : {"1", "2", "4", "8"}) {
      specs.push_back(base.with("placement", std::string{"seg:"} + k));
    }
    const auto results = sys::run_scenarios(specs, opts.threads);

    util::TablePrinter table{{"allocator", "disks", "mean resp (s)",
                              "p95 (s)", "p99 (s)", "avg power (W)"}};
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const auto& r = results[i];
      const auto placement = specs[i].placement.spec();
      table.row(placement, r.per_disk.size(),
                util::format_double(r.response.mean(), 2),
                util::format_double(r.response.p95(), 2),
                util::format_double(r.response.p99(), 2),
                util::format_double(r.power.average_power, 1));
      if (csv) {
        csv->row("segregation", placement, "p99_s", r.response.p99());
        csv->row("segregation", placement, "disks", r.per_disk.size());
      }
    }
    table.print(std::cout);
    bench::print_scenarios(specs);
    std::cout << "(segregating size classes trims the tail at the cost of "
                 "extra disks)\n\n";
  }

  // ---- [2] MAID comparison ----------------------------------------------
  {
    std::cout << "[2] MAID vs Pack_Disks (same farm, skewed reads)\n\n";
    const auto base = sys::ScenarioSpec::parse(
        "catalog=table1(20000) placement=pack load=0.7 "
        "workload=poisson(1,3000) seed=" + std::to_string(opts.seed));
    // MAID gets the same total spindle count: a few cache disks plus data
    // disks; Pack_Disks uses its own allocation on that farm.
    sys::ScenarioCache cache;
    const auto packed_disks = cache.resolve(base).config.num_disks;
    const auto farm = base.with("disks", std::to_string(packed_disks + 8));
    const std::vector<sys::ScenarioSpec> specs{
        farm, farm.with("placement", "maid:4")};
    const auto results = sys::run_scenarios(specs, opts.threads);
    const auto& r_pack = results[0];
    const auto& r_maid = results[1];

    // The share of requests whose file lives on a cache disk.
    const auto maid = cache.resolve(specs[1]);
    double cached_popularity = 0.0;
    for (std::size_t f = 0; f < maid.config.mapping.size(); ++f) {
      if (maid.config.mapping[f] < specs[1].placement.cache_disks) {
        cached_popularity += (*maid.catalog)[f].popularity;
      }
    }

    util::TablePrinter table{{"system", "disks", "saving", "mean resp (s)",
                              "p95 (s)", "spin-ups"}};
    table.row("pack_disks", packed_disks,
              util::format_double(r_pack.power.saving_vs_always_on, 3),
              util::format_double(r_pack.response.mean(), 2),
              util::format_double(r_pack.response.p95(), 2),
              r_pack.power.spin_ups);
    table.row("maid (4 cache disks)", r_maid.per_disk.size(),
              util::format_double(r_maid.power.saving_vs_always_on, 3),
              util::format_double(r_maid.response.mean(), 2),
              util::format_double(r_maid.response.p95(), 2),
              r_maid.power.spin_ups);
    table.print(std::cout);
    bench::print_scenarios(specs);
    std::cout << "(MAID's cache absorbs "
              << util::format_double(100.0 * cached_popularity, 1)
              << "% of requests; Pack_Disks needs no replicas)\n";
    if (csv) {
      csv->row("maid", "pack_disks", "saving",
               r_pack.power.saving_vs_always_on);
      csv->row("maid", "maid", "saving", r_maid.power.saving_vs_always_on);
    }
  }
  return 0;
}
