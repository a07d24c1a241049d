// fig2_3_rate_sweep.cpp — Figures 2 and 3: power-saving ratio and
// response-time ratio vs. arrival rate, read off one (R, L) grid.
//
// For each load constraint L in {50, 60, 70, 80}% and each Poisson rate R,
// the Table 1 workload (40,000 files, 100 disks, 4000 simulated seconds)
// runs once under Pack_Disks and once (per R) under random placement.  The
// two figures are the two sides of the same runs:
//   * Figure 2:  1 - E(Pack_Disks) / E(random).  Paper shape: >60% saving
//     below R = 4, declining as R grows, higher L saving more at high R.
//   * Figure 3:  mean_response(Pack_Disks) / mean_response(random).  The
//     paper reports the ratio staying within roughly 0.5–2.5: packing
//     concentrates queues (ratio above 1 as R grows), but random placement
//     pays spin-up penalties that can push its own responses higher at low
//     R (ratio below 1).
#include <iostream>

#include "bench_common.h"
#include "paper_workload.h"

int main(int argc, char** argv) {
  using namespace spindown;
  const auto opts = bench::BenchOptions::parse(argc, argv);

  // Always the full 40,000-file catalog: the farm/load balance of Table 1
  // depends on it (a smaller catalog inflates mean file size and overloads
  // the 100-disk farm at high R).  --full only densifies the sweep grid.
  const std::vector<double> rates =
      opts.full ? std::vector<double>{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
                : std::vector<double>{1, 2, 4, 6, 8, 10, 12};
  const std::vector<double> loads{0.5, 0.6, 0.7, 0.8};

  // One random run per rate (L does not affect random placement), plus one
  // packed run per (rate, L); run_scenarios builds the catalog once and the
  // random mapping once across all rates.
  std::vector<sys::ScenarioSpec> scenarios;
  for (const double r : rates) {
    scenarios.push_back(
        bench::random_scenario(r, bench::kPaperFarmDisks, opts.seed));
  }
  for (const double r : rates) {
    for (const double l : loads) {
      scenarios.push_back(
          bench::packed_scenario(r, l, bench::kPaperFarmDisks, opts.seed));
    }
  }
  const auto results = sys::run_scenarios(scenarios, opts.threads);
  const auto random_at = [&](std::size_t ri) -> const sys::RunResult& {
    return results[ri];
  };
  const auto packed_at = [&](std::size_t ri,
                             std::size_t li) -> const sys::RunResult& {
    return results[rates.size() + ri * loads.size() + li];
  };
  const auto saving = [](const sys::RunResult& packed,
                         const sys::RunResult& rnd) {
    return rnd.power.energy > 0.0 ? 1.0 - packed.power.energy / rnd.power.energy
                                  : 0.0;
  };
  const auto ratio = [](const sys::RunResult& packed,
                        const sys::RunResult& rnd) {
    return rnd.response.mean() > 0.0
               ? packed.response.mean() / rnd.response.mean()
               : 0.0;
  };

  auto csv = opts.csv();
  if (csv) {
    csv->write_row({"rate", "load_fraction", "power_saving_ratio",
                    "response_time_ratio"});
    for (std::size_t ri = 0; ri < rates.size(); ++ri) {
      for (std::size_t li = 0; li < loads.size(); ++li) {
        csv->row(rates[ri], loads[li], saving(packed_at(ri, li), random_at(ri)),
                 ratio(packed_at(ri, li), random_at(ri)));
      }
    }
  }

  // One table per figure: the grid's cells through `cell`, plus the random
  // baseline's own value in the last column.
  const auto print_table = [&](const std::string& last_column,
                               const auto& cell, const auto& baseline) {
    util::TablePrinter table{
        {"R (req/s)", "L=50%", "L=60%", "L=70%", "L=80%", last_column}};
    for (std::size_t ri = 0; ri < rates.size(); ++ri) {
      std::vector<std::string> row{util::format_double(rates[ri], 0)};
      for (std::size_t li = 0; li < loads.size(); ++li) {
        row.push_back(
            util::format_double(cell(packed_at(ri, li), random_at(ri)), 3));
      }
      row.push_back(baseline(random_at(ri)));
      table.add_row(row);
    }
    table.print(std::cout);
  };

  bench::print_header("Ratio of power saving vs. arrival rate",
                      "Figure 2 of Otoo/Rotem/Tsao, IPPS 2009");
  print_table("E_rnd (kJ)", saving, [](const sys::RunResult& rnd) {
    return util::format_double(rnd.power.energy / 1000.0, 0);
  });
  std::cout << "\n(paper shape: saving > 0.6 for R < 4; declines with R;\n"
               " larger L keeps saving higher at large R)\n\n";

  bench::print_header("Response-time ratio (Pack_Disks / random) vs. rate",
                      "Figure 3 of Otoo/Rotem/Tsao, IPPS 2009");
  print_table("rnd mean resp", ratio, [](const sys::RunResult& rnd) {
    return util::format_seconds(rnd.response.mean());
  });
  std::cout
      << "\n(paper shape: ratio roughly within 0.5-2.5 across the grid)\n";
  return 0;
}
