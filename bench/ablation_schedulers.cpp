// ablation_schedulers.cpp — the scheduler × spin-down-policy grid.
//
// The paper freezes the service discipline at FCFS with a constant seek
// cost, so scheduling never interacts with power management.  This ablation
// opens that axis: every queue discipline (io_scheduler.h) crossed with the
// main spin-down policies, on a queue-building workload (many small files at
// a rate high enough that disks hold several pending requests).  Geometry-
// aware disciplines shorten the positioning phases, which drains queues
// faster (less waiting), lengthens idle gaps (more spin-down opportunity),
// and trims seek-power energy — the grid quantifies all three at once.
//
//   $ ./ablation_schedulers [--quick] [--csv grid.csv] [--json grid.json]
//     [--seed 1] [--threads n] [--rate R]
//
// Queue-building setup: files are capped at 16 MB so transfers (<= 222 ms)
// are comparable to the FCFS positioning cost (12.66 ms) — the regime where
// service order matters — and the farm is packed to a 0.9 load fraction, so
// the loaded disks run near saturation and queues form.
#include <iostream>
#include <vector>

#include "bench_common.h"
#include "paper_workload.h"
#include "sys/scenario.h"
#include "util/cli.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace spindown;
  const util::Cli cli{argc, argv};
  if (cli.has("help")) {
    std::cout << "usage: " << cli.program()
              << " [--quick] [--csv <path>] [--json <path>] [--seed <n>]"
                 " [--threads <n>] [--rate <R>]\n"
                 "scheduler x spin-down-policy ablation grid\n";
    return 0;
  }
  const bool quick = cli.has("quick");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const auto threads = static_cast<unsigned>(cli.get_int("threads", 0));

  const double rate = cli.get_double("rate", quick ? 40.0 : 120.0);
  const double horizon = quick ? 400.0 : 2000.0;

  // Queue-building catalog: many small files (16 MB cap keeps transfers in
  // the positioning regime), Zipf popularity as in Table 1.
  workload::SyntheticSpec synth = workload::SyntheticSpec::paper_table1();
  synth.n_files = quick ? 800 : 3000;
  synth.max_size = util::mb(16.0);
  sys::ScenarioSpec base;
  base.catalog = sys::CatalogSpec::synthetic(synth);
  base.load_fraction = 0.9;
  base.workload = sys::WorkloadSpec::poisson(rate, horizon);
  base.seed = seed;
  const auto packed = sys::resolve_scenario(base);
  const auto& catalog = *packed.catalog;
  const std::uint32_t packed_disks = packed.config.num_disks;
  // The farm keeps the spare disks consolidation freed (the paper's whole
  // economics): spares see no requests, so the spin-down policy decides
  // whether they idle at 9.3 W or park at 0.8 W — the policy axis of the
  // grid — while the loaded disks' queues expose the scheduler axis.
  const std::uint32_t farm = packed_disks + (packed_disks + 1) / 2;
  const auto on_farm = base.with("disks", std::to_string(farm));

  const std::vector<std::string> schedulers{"fcfs", "sstf", "scan", "clook",
                                            "batch"};
  const std::vector<std::pair<std::string, std::string>> policies{
      {"never", "never"},
      {"break-even", "break-even"},
      {"fixed-10s", "fixed:10"},
  };

  std::vector<sys::ScenarioSpec> specs;
  for (const auto& scheduler : schedulers) {
    for (const auto& policy : policies) {
      specs.push_back(
          on_farm.with("sched", scheduler).with("policy", policy.second));
    }
  }

  spindown::bench::print_header(
      "Scheduler x spin-down policy ablation",
      "beyond the paper: geometry-aware service disciplines");
  std::cout << "catalog: " << catalog.size() << " files, "
            << util::format_bytes(catalog.total_bytes()) << " packed onto "
            << packed_disks << " of " << farm << " disks; R = "
            << util::format_double(rate, 1) << " req/s over "
            << util::format_seconds(horizon) << "\n\n";

  const auto results = sys::run_scenarios(specs, threads);

  util::TablePrinter table{{"scheduler", "policy", "mean resp (s)",
                            "p99 resp (s)", "energy (kJ)", "saving",
                            "positionings", "spin-downs"}};
  util::CsvWriter* csv = nullptr;
  std::unique_ptr<util::CsvWriter> csv_holder;
  if (cli.has("csv")) {
    csv_holder = std::make_unique<util::CsvWriter>(
        std::filesystem::path{cli.get("csv", "ablation_schedulers.csv")});
    csv = csv_holder.get();
    csv->write_row({"scheduler", "policy", "mean_resp_s", "p99_resp_s",
                    "energy_j", "saving_vs_always_on", "positionings",
                    "spin_downs", "requests"});
  }
  std::unique_ptr<bench::JsonWriter> json;
  if (cli.has("json")) {
    json = std::make_unique<bench::JsonWriter>(
        std::filesystem::path{cli.get("json", "ablation_schedulers.json")},
        "ablation_schedulers", quick, seed);
    json->meta("rate", rate);
    json->meta("horizon_s", horizon);
    json->meta("farm_disks", static_cast<std::uint64_t>(farm));
  }

  std::size_t i = 0;
  for (const auto& sname : schedulers) {
    for (const auto& [pname, pspec] : policies) {
      const auto& r = results[i++];
      std::uint64_t positionings = 0;
      for (const auto& m : r.per_disk) positionings += m.positionings;
      table.row(sname, pname, util::format_double(r.response.mean(), 3),
                util::format_double(r.response.p99(), 3),
                util::format_double(r.power.energy / 1000.0, 1),
                util::format_double(r.power.saving_vs_always_on, 4),
                positionings, r.power.spin_downs);
      if (csv != nullptr) {
        csv->row(sname, pname, r.response.mean(), r.response.p99(),
                 r.power.energy, r.power.saving_vs_always_on, positionings,
                 r.power.spin_downs, r.requests);
      }
      if (json != nullptr) {
        json->row({{"scheduler", sname},
                   {"policy", pspec},
                   {"mean_resp_s", r.response.mean()},
                   {"p99_resp_s", r.response.p99()},
                   {"energy_j", r.power.energy},
                   {"saving_vs_always_on", r.power.saving_vs_always_on},
                   {"positionings", positionings},
                   {"spin_downs", r.power.spin_downs},
                   {"requests", r.requests}});
      }
    }
  }
  table.print(std::cout);
  bench::print_scenarios(specs);
  std::cout << "\npositionings < requests on a row means the batching\n"
               "scheduler coalesced adjacent extents into shared seeks;\n"
               "geometry-aware rows pay seek(distance) instead of the\n"
               "constant Table-2 average.\n";
  return 0;
}
