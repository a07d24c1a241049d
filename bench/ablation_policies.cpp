// ablation_policies.cpp — design-choice ablations beyond the paper's grid.
//
// Four studies on the scaled NERSC workload with Pack_Disks placement:
//   1. Spin-down policy family (§2's related work, made concrete):
//      never / immediate / break-even / fixed 10 min / randomized, each
//      reported as the ratio of its energy to an analytic floor (busy
//      energy plus all idle time at standby draw).  The floor is a lower
//      bound no policy reaches, not an offline optimum.
//   2. Cache policy (the paper's stated future work): LRU vs FIFO vs LFU at
//      16 GB.
//   3. Service-time model: full positioning + transfer vs the paper's
//      simpler l = r*s/B normalization — how much the allocation changes.
//   4. Device: Table 2's desktop drive vs a low-power 2.5" profile.
//
// Every run is a ScenarioSpec; the lines under each table re-run its rows
// with `spindown_run --scenario`.
#include <iostream>
#include <span>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/normalize.h"
#include "core/pack_disks.h"
#include "paper_workload.h"
#include "sys/scenario.h"

int main(int argc, char** argv) {
  using namespace spindown;
  const auto opts = bench::BenchOptions::parse(argc, argv);
  bench::print_header("Ablations: spin-down policy, cache policy, load model",
                      "§2 related work + §6 future work of the paper");

  workload::NerscSpec spec = workload::NerscSpec::paper();
  spec.n_files = opts.full ? 40'000 : 15'000;
  spec.n_requests = opts.full ? 55'000 : 20'000;
  spec.duration_s = (opts.full ? 14.0 : 5.0) * util::kDay;
  // Every run replays the trace on Pack_Disks at L = 0.8.  Studies 1, 2
  // and 4 each vary one key of this base and run as one sweep, so the
  // trace is synthesized and packed once per device.
  sys::ScenarioSpec base;
  base.catalog = sys::CatalogSpec::nersc_synth(spec);
  base.workload = sys::WorkloadSpec::replay_catalog();
  base.seed = opts.seed;
  const auto packed = sys::resolve_scenario(base);
  const auto& trace = *packed.trace;

  const std::vector<std::pair<std::string, std::string>> policies{
      {"never", "never"},
      {"immediate", "fixed:0"},
      {"break-even (53.3 s)", "break-even"},
      {"fixed 10 min", "fixed:600"},
      {"randomized e/(e-1)", "randomized"},
  };
  const std::vector<std::string> caches{"none", "lru", "fifo", "lfu"};
  const std::vector<std::string> devices{"st3500630as", "laptop_2_5in"};
  std::vector<sys::ScenarioSpec> specs;
  for (const auto& entry : policies) {
    specs.push_back(base.with("policy", entry.second));
  }
  for (const auto& name : caches) specs.push_back(base.with("cache", name));
  for (const auto& name : devices) specs.push_back(base.with("device", name));
  const auto results = sys::run_scenarios(specs, opts.threads);
  const std::span<const sys::ScenarioSpec> rows{specs};
  const std::size_t cache_at = policies.size();
  const std::size_t device_at = cache_at + caches.size();

  // --- Study 1: spin-down policies --------------------------------------
  std::cout << "[1] spin-down policy family (placement fixed: pack_disks, "
            << packed.config.num_disks << " disks)\n\n";

  // The floor: busy energy (positioning + transfer; identical across
  // policies, which serve the same requests) plus every idle second at
  // standby draw, both taken from the never-spin-down run.
  const auto& never_run = results[0];
  const disk::DiskParams params = base.params;
  double busy_energy = 0.0;
  double idle_time_total = 0.0;
  for (const auto& m : never_run.per_disk) {
    busy_energy += m.time_in(disk::PowerState::kPositioning) * params.seek_w +
                   m.time_in(disk::PowerState::kTransfer) * params.active_w;
    idle_time_total += m.time_in(disk::PowerState::kIdle);
  }
  const double analytic_floor =
      busy_energy + idle_time_total * params.standby_w;

  util::TablePrinter ptable{{"policy", "energy (MJ)", "saving", "mean resp (s)",
                             "spin-downs", "ratio vs floor"}};

  auto csv = opts.csv();
  if (csv) csv->write_row({"study", "name", "metric", "value"});
  for (std::size_t i = 0; i < policies.size(); ++i) {
    const auto& r = results[i];
    ptable.row(policies[i].first,
               util::format_double(r.power.energy / 1e6, 2),
               util::format_double(r.power.saving_vs_always_on, 3),
               util::format_double(r.response.mean(), 2),
               r.power.spin_downs,
               util::format_double(r.power.energy / analytic_floor, 2));
    if (csv) {
      csv->row("policy", policies[i].first, "energy_j", r.power.energy);
      csv->row("policy", policies[i].first, "mean_resp_s", r.response.mean());
    }
  }
  ptable.print(std::cout);
  bench::print_scenarios(rows.first(policies.size()));
  std::cout << "(floor = busy energy + all idle at standby draw; unreachable "
               "but a valid\n lower bound for every policy)\n\n";

  // --- Study 2: cache policy ---------------------------------------------
  std::cout << "[2] cache policy at 16 GB (threshold = break-even)\n\n";
  util::TablePrinter ctable{{"cache", "hit ratio", "energy (MJ)",
                             "mean resp (s)"}};
  for (std::size_t i = 0; i < caches.size(); ++i) {
    const auto& r = results[cache_at + i];
    ctable.row(caches[i],
               util::format_double(100.0 * r.cache.hit_ratio(), 1) + "%",
               util::format_double(r.power.energy / 1e6, 2),
               util::format_double(r.response.mean(), 2));
    if (csv) {
      csv->row("cache", caches[i], "hit_ratio", r.cache.hit_ratio());
    }
  }
  ctable.print(std::cout);
  bench::print_scenarios(rows.subspan(cache_at, caches.size()));
  std::cout << "(paper: LRU hit ratio ~5.6% on this workload — caches help "
               "little)\n\n";

  // --- Study 3: load model -----------------------------------------------
  std::cout << "[3] service-time model in the normalizer\n\n";
  core::LoadModel simple;
  simple.rate = static_cast<double>(trace.size()) / trace.duration();
  simple.load_fraction = base.load_fraction;
  simple.include_positioning = false;
  const auto a_simple =
      core::PackDisks{}.allocate(core::normalize(trace.catalog(), simple));
  const auto& placement = packed.config.mapping;
  std::size_t moved = 0;
  for (std::size_t i = 0; i < placement.size(); ++i) {
    if (placement[i] != a_simple.disk_of[i]) ++moved;
  }
  util::TablePrinter mtable{{"model", "disks", "files placed differently"}};
  mtable.row("position+transfer (default)", packed.config.num_disks, "-");
  mtable.row("transfer only (paper's l=r*s/B)", a_simple.disk_count,
             std::to_string(moved) + " / " +
                 std::to_string(placement.size()));
  mtable.print(std::cout);
  std::cout << "(for whole-file reads of hundreds of MB the 12.7 ms "
               "positioning term\n barely moves the packing)\n\n";

  // --- Study 4: device sensitivity ----------------------------------------
  std::cout << "[4] device sensitivity: Table 2's 3.5\" desktop drive vs a "
               "low-power 2.5\" profile\n\n";
  util::TablePrinter dtable{{"device", "break-even", "transition E",
                             "saving", "mean resp (s)", "spin-downs"}};
  for (std::size_t i = 0; i < devices.size(); ++i) {
    const disk::DiskParams device = specs[device_at + i].params;
    const auto& r = results[device_at + i];
    dtable.row(device.model,
               util::format_seconds(device.break_even_threshold()),
               util::format_double(device.transition_energy(), 0) + " J",
               util::format_double(r.power.saving_vs_always_on, 3),
               util::format_double(r.response.mean(), 2),
               r.power.spin_downs);
    if (csv) {
      csv->row("device", device.model, "saving", r.power.saving_vs_always_on);
    }
  }
  dtable.print(std::cout);
  bench::print_scenarios(rows.subspan(device_at, devices.size()));
  std::cout << "(cheap transitions let the 2.5\" profile spin down far more "
               "often;\n its low idle draw also shrinks what there is to "
               "save relative to always-on)\n";
  return 0;
}
