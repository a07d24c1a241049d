// ablation_schedulers.cpp — the scheduler × spin-down-policy grid.
//
// The paper freezes the service discipline at FCFS with a constant seek
// cost, so scheduling never interacts with power management.  This ablation
// opens that axis: every I/O scheduler (io_scheduler.h) crossed with the
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
#include "core/normalize.h"
#include "core/pack_disks.h"
#include "paper_workload.h"
#include "sys/experiment.h"
#include "sys/sweep.h"
#include "util/cli.h"
#include "util/table.h"
#include "workload/catalog.h"

namespace {

using namespace spindown;

struct Cell {
  sys::SchedulerSpec scheduler;
  sys::PolicySpec policy;
};

} // namespace

int main(int argc, char** argv) {
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

  // Queue-building catalog: many small files (16 MB cap keeps transfers in
  // the positioning regime), Zipf popularity as in Table 1.
  workload::SyntheticSpec spec = workload::SyntheticSpec::paper_table1();
  spec.n_files = quick ? 800 : 3000;
  spec.max_size = util::mb(16.0);
  util::Rng rng{seed};
  const auto catalog = workload::generate_catalog(spec, rng);

  const double rate = cli.get_double("rate", quick ? 40.0 : 120.0);
  const double horizon = quick ? 400.0 : 2000.0;

  core::LoadModel model;
  model.rate = rate;
  model.load_fraction = 0.9;
  core::PackDisks pack;
  const auto assignment = pack.allocate(core::normalize(catalog, model));
  // The farm keeps the spare disks consolidation freed (the paper's whole
  // economics): spares see no requests, so the spin-down policy decides
  // whether they idle at 9.3 W or park at 0.8 W — the policy axis of the
  // grid — while the loaded disks' queues expose the scheduler axis.
  const std::uint32_t farm =
      assignment.disk_count + (assignment.disk_count + 1) / 2;

  const std::vector<std::pair<std::string, sys::SchedulerSpec>> schedulers{
      {"fcfs", sys::SchedulerSpec::fcfs()},
      {"sstf", sys::SchedulerSpec::sstf()},
      {"scan", sys::SchedulerSpec::scan()},
      {"clook", sys::SchedulerSpec::clook()},
      {"batch", sys::SchedulerSpec::batch()},
  };
  const std::vector<std::pair<std::string, sys::PolicySpec>> policies{
      {"never", sys::PolicySpec::never()},
      {"break-even", sys::PolicySpec::break_even()},
      {"fixed-10s", sys::PolicySpec::fixed(10.0)},
  };

  std::vector<sys::ExperimentConfig> configs;
  for (const auto& scheduler : schedulers) {
    for (const auto& policy : policies) {
      sys::ExperimentConfig cfg;
      cfg.catalog = &catalog;
      cfg.mapping = assignment.disk_of;
      cfg.num_disks = farm;
      cfg.policy = policy.second;
      cfg.scheduler = scheduler.second;
      cfg.workload = sys::WorkloadSpec::poisson(rate, horizon);
      cfg.seed = seed;
      configs.push_back(std::move(cfg));
    }
  }

  spindown::bench::print_header(
      "Scheduler x spin-down policy ablation",
      "beyond the paper: geometry-aware service disciplines");
  std::cout << "catalog: " << catalog.size() << " files, "
            << util::format_bytes(catalog.total_bytes()) << " packed onto "
            << assignment.disk_count << " of " << farm << " disks; R = "
            << util::format_double(rate, 1) << " req/s over "
            << util::format_seconds(horizon) << "\n\n";

  const auto results = sys::run_sweep(configs, threads);

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
  for (const auto& [sname, sspec] : schedulers) {
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
                   {"policy", pspec.spec()},
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
  std::cout << "\npositionings < requests on a row means the batching\n"
               "scheduler coalesced adjacent extents into shared seeks;\n"
               "geometry-aware rows pay seek(distance) instead of the\n"
               "constant Table-2 average.\n";
  return 0;
}
