// fleet_throughput.cpp — fleet-scale scaling study of the sharded simulator.
//
// One scenario, thousands of disks: a synthetic farm at ~0.6 per-disk
// utilization (24.4 req/s per spindle — 1e5 req/s aggregate at 4096 disks)
// is run through the sys/fleet.h pipeline (router thread, SPSC rings,
// recycled batch arenas) at 1/2/4/8 shards.  The shards=1 row of each farm
// size is the baseline.
//
// Self-timed (std::chrono); each row reports the disks' resolved events,
// wall-clock, events/s and the wall-clock speedup over shards=1 at the
// same scale.  Every sharded run is also checked bit-for-bit against the
// shards=1 result (energy, response mean/count, spin-ups), so the bench
// doubles as a large-scale determinism smoke test.  --json additionally
// emits one kind="shard" row per shard with the FleetPerf counters
// (submissions, batches, events, ring high-water, worker busy/wait), so
// routing regressions are diagnosable from BENCH_fleet.json alone.
//
// Usage:
//   fleet_throughput [--quick] [--reps <n>] [--json <path>] [--seed <n>]
//
// --quick shrinks the farm sizes and horizons to a smoke-test size (CI runs
// this; timing is not asserted).  BENCH_fleet.json at the repo root is the
// committed snapshot regenerated via:
//   ./build/bench/fleet_throughput --json BENCH_fleet.json
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "sys/experiment.h"
#include "sys/fleet.h"
#include "util/cli.h"
#include "util/table.h"
#include "util/units.h"
#include "workload/catalog.h"

namespace {

using namespace spindown;

/// ~0.6 utilization per ST3500630AS spindle: mean service is one average
/// positioning (~18 ms) plus a 512 KB transfer (~6.6 ms).
constexpr double kRatePerDisk = 24.4;

workload::FileCatalog farm_catalog(std::uint32_t disks) {
  // Four 512 KB files per disk, uniformly popular: the request mix is
  // dominated by positioning + short transfers, like a busy fleet.
  std::vector<workload::FileInfo> files(4ull * disks);
  for (std::size_t i = 0; i < files.size(); ++i) {
    files[i].id = static_cast<workload::FileId>(i);
    files[i].size = static_cast<util::Bytes>(util::mb(0.5));
    files[i].popularity = 1.0 / static_cast<double>(files.size());
  }
  return workload::FileCatalog{files};
}

struct Row {
  std::uint32_t disks = 0;
  std::uint32_t shards = 0;
  double rate = 0.0;
  double horizon_s = 0.0;
  std::uint64_t requests = 0;
  std::uint64_t events = 0;
  double wall_s = 0.0;
  double speedup = 0.0; ///< wall(shards=1) / wall(this row), same scale
  bool identical = false;

  double events_per_sec() const { return wall_s > 0 ? events / wall_s : 0.0; }
  double requests_per_sec() const {
    return wall_s > 0 ? requests / wall_s : 0.0;
  }
};

} // namespace

int main(int argc, char** argv) {
  const util::Cli cli{argc, argv};
  if (cli.has("help")) {
    std::cout
        << "usage: " << cli.program()
        << " [--quick] [--reps <n>] [--json <path>] [--seed <n>]\n"
        << "Scales one scenario across 64/512/4096 disks and 1/2/4/8\n"
        << "shards; reports events/s and the wall-clock speedup\n"
        << "over shards=1, and verifies every sharded result is\n"
        << "bit-identical to it.\n";
    return 0;
  }
  const bool quick = cli.has("quick");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  // Wall-clock per row is the best of `reps` runs: the simulation is
  // deterministic, so repetition only strips scheduler/cache noise from
  // the timing (the result is checked bit-identical on every rep).
  const std::int64_t reps = cli.get_int("reps", quick ? 1 : 3);
  if (reps < 1) {
    std::cerr << "fleet_throughput: --reps must be at least 1, got " << reps
              << "\n";
    return 2;
  }
  // Measurement sized per scale so every farm processes the same request
  // volume: horizon = target / rate.
  const double target_requests = quick ? 2.0e4 : 4.0e5;
  const std::vector<std::uint32_t> farm_sizes =
      quick ? std::vector<std::uint32_t>{64, 512}
            : std::vector<std::uint32_t>{64, 512, 4096};
  const std::vector<std::uint32_t> shard_counts{1, 2, 4, 8};

  std::cout << "== fleet_throughput ==\n"
            << "   " << (quick ? "--quick" : "full") << "; "
            << kRatePerDisk << " req/s per disk, ~"
            << static_cast<std::uint64_t>(target_requests)
            << " requests per scale; " << std::thread::hardware_concurrency()
            << " hardware thread(s)\n\n";

  auto json = cli.has("json")
                  ? std::make_unique<bench::JsonWriter>(
                        cli.get("json", "BENCH_fleet.json"),
                        "fleet_throughput", quick, seed)
                  : nullptr;
  if (json != nullptr) {
    json->meta("rate_per_disk", kRatePerDisk);
    json->meta("target_requests", target_requests);
    json->meta("reps", reps);
    json->meta("hardware_concurrency",
               static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  }

  util::TablePrinter table{{"disks", "shards", "requests", "events",
                            "wall (s)", "events/s", "req/s", "speedup",
                            "identical"}};
  bool all_identical = true;

  for (const std::uint32_t disks : farm_sizes) {
    const auto catalog = farm_catalog(disks);
    const double rate = kRatePerDisk * disks;
    const double horizon = target_requests / rate;

    sys::ExperimentConfig cfg;
    cfg.catalog = &catalog;
    cfg.mapping.resize(catalog.size());
    for (std::size_t i = 0; i < cfg.mapping.size(); ++i) {
      cfg.mapping[i] = static_cast<std::uint32_t>(i % disks);
    }
    cfg.num_disks = disks;
    cfg.workload = sys::WorkloadSpec::poisson(rate, horizon);
    cfg.seed = seed;

    sys::RunResult baseline;
    double baseline_wall = 0.0;
    for (const std::uint32_t shards : shard_counts) {
      sys::FleetPerf perf;
      sys::RunResult result;
      double wall = 0.0;
      cfg.shards = shards;
      for (int rep = 0; rep < reps; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        result = sys::run_experiment(cfg, nullptr, &perf);
        const double rep_wall = std::chrono::duration<double>(
                                    std::chrono::steady_clock::now() - t0)
                                    .count();
        wall = rep == 0 ? rep_wall : std::min(wall, rep_wall);
      }
      if (shards == 1) {
        baseline = result;
        baseline_wall = wall;
      }

      Row row;
      row.disks = disks;
      row.shards = shards;
      row.rate = rate;
      row.horizon_s = horizon;
      row.requests = result.requests;
      row.events = result.events;
      row.wall_s = wall;
      row.speedup = row.wall_s > 0 ? baseline_wall / row.wall_s : 0.0;
      row.identical =
          result.power.energy == baseline.power.energy &&
          result.power.saving_vs_always_on ==
              baseline.power.saving_vs_always_on &&
          result.response.count() == baseline.response.count() &&
          result.response.mean() == baseline.response.mean() &&
          result.response.max() == baseline.response.max() &&
          result.power.spin_ups == baseline.power.spin_ups &&
          result.requests == baseline.requests;
      all_identical = all_identical && row.identical;

      table.add_row({std::to_string(row.disks), std::to_string(row.shards),
                     std::to_string(row.requests), std::to_string(row.events),
                     util::format_double(row.wall_s, 3),
                     util::format_double(row.events_per_sec(), 0),
                     util::format_double(row.requests_per_sec(), 0),
                     util::format_double(row.speedup, 2),
                     row.identical ? "yes" : "NO"});
      if (json == nullptr) continue;
      json->row({{"kind", "run"},
                 {"disks", row.disks},
                 {"shards", row.shards},
                 {"rate_req_per_s", row.rate},
                 {"horizon_s", row.horizon_s},
                 {"requests", row.requests},
                 {"events", row.events},
                 {"wall_s", row.wall_s},
                 {"events_per_sec", row.events_per_sec()},
                 {"requests_per_sec", row.requests_per_sec()},
                 {"speedup_vs_shards1", row.speedup},
                 {"identical_to_shards1", row.identical},
                 {"router_busy_s", perf.router_busy_s},
                 {"router_stall_s", perf.router_stall_s},
                 {"feeder_busy_s", perf.feeder_busy_s},
                 {"feeder_stall_s", perf.feeder_stall_s}});
      for (const auto& s : perf.per_shard) {
        json->row(
            {{"kind", "shard"},
             {"disks", row.disks},
             {"shards", row.shards},
             {"shard", s.shard},
             {"submissions", s.submissions},
             {"batches", s.batches},
             {"events", s.events},
             {"events_per_sec",
              row.wall_s > 0 ? s.events / row.wall_s : 0.0},
             {"ring_high_water", static_cast<std::uint64_t>(s.ring_high_water)},
             {"worker_busy_s", perf.worker_busy_s[s.shard]},
             {"worker_wait_s", perf.worker_wait_s[s.shard]}});
      }
    }
  }

  table.print(std::cout);
  std::cout << "\ndeterminism: "
            << (all_identical
                    ? "every sharded run bit-identical to shards=1"
                    : "MISMATCH against shards=1 (bug)")
            << "\n";
  if (json != nullptr) {
    json->meta("all_identical", all_identical);
    json->finish();
    std::cout << "wrote " << cli.get("json", "BENCH_fleet.json") << "\n";
  }
  return all_identical ? 0 : 1;
}
