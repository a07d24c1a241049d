// fig5_6_threshold_sweep.cpp — Figures 5 and 6: power saving and response
// time vs. idleness threshold, read off one threshold grid.
//
// Replays the (synthesized) 30-day NERSC trace against the five §5.1
// configurations — RND, Pack_Disk, Pack_Disk4, RND+LRU, Pack_Disk4+LRU —
// sweeping the fixed idleness threshold from ~0 to 2 hours.
//   * Figure 5: power saving, normalized against spinning all N disks with
//     no power management (the paper's normalization).  Paper shape:
//     Pack_Disk(4) saves ~85% almost flat across thresholds; RND varies
//     strongly (high saving only at aggressive thresholds); the 16 GB LRU
//     barely helps (~5.6% hit ratio).
//   * Figure 6: mean response.  Paper shape: random placement needs a
//     threshold >= 0.5 h to keep mean response under 10 s (aggressive
//     spin-down makes almost every request pay the 15 s spin-up), while
//     Pack_Disk(4) stays low and flat because the few hot disks never go to
//     sleep.
#include <iostream>

#include "bench_common.h"
#include "paper_workload.h"

int main(int argc, char** argv) {
  using namespace spindown;
  const auto opts = bench::BenchOptions::parse(argc, argv);
  bench::print_header("Power saving vs. idleness threshold (NERSC trace)",
                      "Figure 5 of Otoo/Rotem/Tsao, IPPS 2009");

  const auto spec = bench::nersc_paper_spec(opts.full);
  std::cout << "synthesizing NERSC-like trace (" << spec.n_requests
            << " requests / " << spec.n_files << " files)...\n\n";

  const std::vector<double> thresholds_h =
      opts.full ? std::vector<double>{0.01, 0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0}
                : std::vector<double>{0.01, 0.25, 0.5, 1.0, 2.0};

  // run_scenarios synthesizes the trace once and builds each of the three
  // distinct mappings once across the whole threshold grid.
  std::vector<sys::ScenarioSpec> scenarios;
  for (const double th : thresholds_h) {
    for (const auto c : bench::kAllNerscConfigs) {
      scenarios.push_back(
          bench::nersc_scenario(spec, c, th * util::kHour, opts.seed));
    }
  }
  const auto results = sys::run_scenarios(scenarios, opts.threads);
  const std::size_t n_cfg = std::size(bench::kAllNerscConfigs);

  auto csv = opts.csv();
  if (csv) {
    csv->write_row({"threshold_h", "config", "power_saving", "mean_resp_s"});
  }
  auto json = opts.json("fig5_6_threshold_sweep", !opts.full);
  for (std::size_t ti = 0; ti < thresholds_h.size(); ++ti) {
    for (std::size_t ci = 0; ci < n_cfg; ++ci) {
      const auto& r = results[ti * n_cfg + ci];
      const auto config = bench::to_string(bench::kAllNerscConfigs[ci]);
      if (csv) {
        csv->row(thresholds_h[ti], config, r.power.saving_vs_always_on,
                 r.response.mean());
      }
      if (json) {
        json->row({{"threshold_h", thresholds_h[ti]},
                   {"config", config},
                   {"power_saving", r.power.saving_vs_always_on},
                   {"energy_j", r.power.energy},
                   {"mean_resp_s", r.response.mean()},
                   {"p95_resp_s", r.response.p95()},
                   {"p99_resp_s", r.response.p99()}});
      }
    }
  }

  // One table per figure: threshold rows, one column per configuration.
  const auto print_table = [&](const auto& cell, int decimals) {
    util::TablePrinter table{{"threshold (h)", "RND", "Pack_Disk",
                              "Pack_Disk4", "RND+LRU", "Pack_Disk4+LRU"}};
    for (std::size_t ti = 0; ti < thresholds_h.size(); ++ti) {
      std::vector<std::string> row{util::format_double(thresholds_h[ti], 2)};
      for (std::size_t ci = 0; ci < n_cfg; ++ci) {
        row.push_back(
            util::format_double(cell(results[ti * n_cfg + ci]), decimals));
      }
      table.add_row(row);
    }
    table.print(std::cout);
  };

  print_table(
      [](const sys::RunResult& r) { return r.power.saving_vs_always_on; }, 3);
  // The §5.1 cache observation.
  const auto& lru_run = results[n_cfg - 1]; // any +LRU run: same cache size
  std::cout << "\nLRU cache hit ratio: "
            << util::format_double(100.0 * lru_run.cache.hit_ratio(), 1)
            << "% (paper: 5.6%)\n";
  std::cout << "(paper shape: Pack_Disk(4) ~0.85 and nearly flat; RND varies "
               "30-90%,\n falling as the threshold grows; LRU adds little)\n\n";

  bench::print_header("Response time vs. idleness threshold (NERSC trace)",
                      "Figure 6 of Otoo/Rotem/Tsao, IPPS 2009");
  print_table([](const sys::RunResult& r) { return r.response.mean(); }, 2);
  std::cout << "\n(mean response in seconds; paper shape: RND needs threshold "
               ">= 0.5 h\n to stay under ~10 s, Pack_Disk(4) low and flat)\n";
  return 0;
}
