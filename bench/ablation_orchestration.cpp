// ablation_orchestration.cpp — fleet power orchestration vs per-disk
// adaptation.
//
// The adaptive ablation (ablation_adaptive.cpp) lets every spindle pick its
// own threshold; this one keeps the per-disk policy fixed and moves the
// coordination *across* disks instead, on the identical catalog, farm, and
// workload grid (stationary / diurnal / bursty, same seed), so rows are
// directly comparable between the two committed baselines.  Mechanisms
// (src/orch/):
//
//   * redirect — replicas=2 + replica-aware read redirection: the
//     deterministic lowest-id tie-break concentrates reads on a prefix of
//     the fleet, so the disks holding only cold copies sleep through;
//   * offload  — a 1-disk always-on log tier absorbs writes aimed at
//     sleeping disks and destages them in batches (honest cost: the log
//     disk's own idle draw is included in fleet energy).
//
// The coordinated rows are the full 2x2 grid over {redirect, offload},
// once over the break-even policy and once over ewma; the grid's off
// corners are the per-disk rows of the same policy.  The per-disk
// reference rows are the adaptive ablation's policy set run
// orchestration-off.  The bench exits non-zero unless:
//   * every mechanism changes some output: of all row pairs that differ
//     only in that mechanism, at least one differs in energy, mean or p99
//     response (a mechanism that moves nothing is dead weight);
//   * on the diurnal scenario some coordinated row *strictly dominates*
//     the per-disk set — lower energy than the best per-disk energy AND
//     lower mean response than the best per-disk mean;
//   * the coordinated run is bit-identical across shard counts.
//
//   $ ./ablation_orchestration [--quick] [--csv g.csv]
//     [--json BENCH_orchestration.json] [--seed 1] [--threads n] [--slo 12]
//
// The committed BENCH_orchestration.json baseline is the full run;
// regenerate with:  ./ablation_orchestration --json BENCH_orchestration.json
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/normalize.h"
#include "core/pack_disks.h"
#include "sys/experiment.h"
#include "sys/sweep.h"
#include "util/cli.h"
#include "util/table.h"
#include "workload/catalog.h"

namespace {

using namespace spindown;

struct OrchRow {
  std::string label;
  sys::PolicySpec policy;
  bool redirect = false; ///< replicas=2 + read redirection
  bool offload = false;  ///< 1-disk log tier

  bool coordinated() const { return redirect || offload; }
  std::uint32_t replicas() const { return redirect ? 2 : 1; }
  /// OrchSpec string, "off" for per-disk rows.
  std::string orch() const {
    if (!coordinated()) return "off";
    if (!offload) return "redirect";
    return redirect ? "redirect+offload:1" : "offload:1";
  }
};

/// The flags that select an orchestration mechanism on a row.
struct Mechanism {
  std::string name;
  bool OrchRow::*flag;
};

/// True when rows a and b differ in `m` and in nothing else.
bool differ_only_in(const OrchRow& a, const OrchRow& b, const Mechanism& m) {
  OrchRow flipped = a;
  flipped.*m.flag = !(a.*m.flag);
  return flipped.redirect == b.redirect && flipped.offload == b.offload &&
         a.policy.spec() == b.policy.spec();
}

bool same_output(const sys::RunResult& a, const sys::RunResult& b) {
  return a.power.energy == b.power.energy &&
         a.response.mean() == b.response.mean() &&
         a.response.p99() == b.response.p99();
}

double total_energy(const sys::RunResult& r) { return r.power.energy; }

} // namespace

int main(int argc, char** argv) {
  const util::Cli cli{argc, argv};
  if (cli.has("help")) {
    std::cout << "usage: " << cli.program()
              << " [--quick] [--csv <path>] [--json <path>] [--seed <n>]"
                 " [--threads <n>] [--slo <s>]\n"
                 "fleet orchestration (redirect/offload) x workload grid\n";
    return 0;
  }
  const bool quick = cli.has("quick");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const auto threads = static_cast<unsigned>(cli.get_int("threads", 0));
  const double slo = cli.get_double("slo", 12.0);

  // Identical farm construction to ablation_adaptive.cpp (same seed, same
  // catalog, same packing) so per-disk rows here reproduce that baseline's
  // numbers bit for bit.
  workload::SyntheticSpec spec = workload::SyntheticSpec::paper_table1();
  spec.n_files = quick ? 500 : 1500;
  spec.max_size = util::mb(32.0);
  util::Rng rng{seed};
  const auto catalog = workload::generate_catalog(spec, rng);

  const double busy_rate = quick ? 1.5 : 3.0;
  core::LoadModel model;
  model.rate = busy_rate;
  model.load_fraction = 0.025;
  core::PackDisks pack;
  const auto assignment = pack.allocate(core::normalize(catalog, model));
  const std::uint32_t farm = assignment.disk_count;

  const disk::DiskParams params = disk::DiskParams::st3500630as();
  const double B = params.break_even_threshold();

  const double shoulder_rate = static_cast<double>(farm) / 65.0;
  const double night_rate = static_cast<double>(farm) / (quick ? 250.0 : 350.0);
  const double lull_rate = static_cast<double>(farm) / (quick ? 500.0 : 450.0);

  const double phase_s = quick ? 1500.0 : 3000.0;
  const double period = 3.0 * phase_s;
  const double horizon = (quick ? 2.0 : 3.0) * period;

  const std::vector<workload::RateSegment> diurnal{
      {0.0, busy_rate}, {phase_s, shoulder_rate}, {2.0 * phase_s, night_rate}};
  workload::MmppParams burst;
  burst.rate = {shoulder_rate, lull_rate};
  burst.mean_dwell = {phase_s / 2.0, phase_s};

  struct Scenario {
    std::string name;
    sys::WorkloadSpec workload;
  };
  const std::vector<Scenario> scenarios{
      {"stationary", sys::WorkloadSpec::poisson(busy_rate, horizon)},
      {"diurnal", sys::WorkloadSpec::nhpp(diurnal, horizon, period)},
      {"bursty", sys::WorkloadSpec::mmpp(burst, horizon)},
  };

  const std::vector<OrchRow> rows{
      // Per-disk reference set: the adaptive ablation's policies, orch off.
      {"break-even", sys::PolicySpec::break_even()},
      {"ewma", sys::PolicySpec::ewma()},
      {"share", sys::PolicySpec::share()},
      {"slack", sys::PolicySpec::slack(slo)},
      // Coordinated set: per-disk policy pinned to break-even so every
      // delta below is attributable to the fleet-level mechanism.
      {"redirect", sys::PolicySpec::break_even(), true, false},
      {"offload", sys::PolicySpec::break_even(), false, true},
      {"all", sys::PolicySpec::break_even(), true, true},
      // Coordination composes with per-disk adaptation: the same fleet
      // mechanisms over the adaptive ewma policy instead of break-even.
      {"redirect x ewma", sys::PolicySpec::ewma(), true, false},
      {"offload x ewma", sys::PolicySpec::ewma(), false, true},
      {"all x ewma", sys::PolicySpec::ewma(), true, true},
  };
  const std::vector<Mechanism> mechanisms{{"redirect", &OrchRow::redirect},
                                          {"offload", &OrchRow::offload}};

  auto config_for = [&](const Scenario& s, const OrchRow& row) {
    sys::ExperimentConfig cfg;
    cfg.catalog = &catalog;
    cfg.mapping = assignment.disk_of;
    cfg.policy = row.policy;
    cfg.workload = s.workload;
    cfg.seed = seed;
    cfg.orch = sys::OrchSpec::parse(row.orch());
    cfg.replicas = row.replicas();
    cfg.num_disks = farm + (cfg.orch.offload ? cfg.orch.log_disks : 0);
    return cfg;
  };

  std::vector<sys::ExperimentConfig> configs;
  for (const auto& s : scenarios) {
    for (const auto& row : rows) configs.push_back(config_for(s, row));
  }
  // Shard-identity probe: the all-mechanisms diurnal run again at 4 shards
  // (configs[...] above all run at shards = 1).
  auto sharded = config_for(scenarios[1], rows.back());
  sharded.shards = 4;
  configs.push_back(sharded);

  bench::print_header("Fleet orchestration x non-stationary workloads",
                      "coordinated spin state: redirect / offload");
  std::cout << "catalog: " << catalog.size() << " files, "
            << util::format_bytes(catalog.total_bytes()) << " on " << farm
            << " data disks (break-even " << util::format_seconds(B)
            << "); horizon " << util::format_seconds(horizon)
            << ", slack SLO p99 < " << util::format_seconds(slo) << "\n\n";

  const auto all_results = sys::run_sweep(configs, threads);

  util::CsvWriter* csv = nullptr;
  std::unique_ptr<util::CsvWriter> csv_holder;
  if (cli.has("csv")) {
    csv_holder = std::make_unique<util::CsvWriter>(
        std::filesystem::path{cli.get("csv", "ablation_orchestration.csv")});
    csv = csv_holder.get();
    csv->write_row({"scenario", "orch", "policy", "replicas", "workload",
                    "energy_j", "saving_vs_always_on", "mean_resp_s",
                    "p95_resp_s", "p99_resp_s", "spin_downs", "spin_ups",
                    "requests"});
  }
  std::unique_ptr<bench::JsonWriter> json;
  if (cli.has("json")) {
    json = std::make_unique<bench::JsonWriter>(
        std::filesystem::path{cli.get("json", "BENCH_orchestration.json")},
        "ablation_orchestration", quick, seed);
    json->meta("farm_disks", static_cast<std::uint64_t>(farm));
    json->meta("break_even_s", B);
    json->meta("slo_p99_s", slo);
    json->meta("horizon_s", horizon);
  }

  bool diurnal_dominates = false;
  std::string diurnal_dominator;
  std::size_t idx = 0;
  for (const auto& s : scenarios) {
    std::vector<sys::RunResult> results;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      results.push_back(all_results[idx++]);
    }

    std::cout << "--- " << s.name << "  [" << s.workload.spec() << "]\n";
    util::TablePrinter table{{"row", "orch", "energy (kJ)", "saving",
                              "mean resp (s)", "p95 (s)", "p99 (s)",
                              "spin-ups"}};
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto& r = results[i];
      table.row(rows[i].label, rows[i].orch(),
                util::format_double(r.power.energy / 1000.0, 1),
                util::format_double(r.power.saving_vs_always_on, 4),
                util::format_double(r.response.mean(), 3),
                util::format_double(r.response.p95(), 3),
                util::format_double(r.response.p99(), 3), r.power.spin_ups);
      if (csv != nullptr) {
        csv->row(s.name, rows[i].orch(), rows[i].policy.spec(),
                 rows[i].replicas(), s.workload.spec(), r.power.energy,
                 r.power.saving_vs_always_on, r.response.mean(),
                 r.response.p95(), r.response.p99(), r.power.spin_downs,
                 r.power.spin_ups, r.requests);
      }
      if (json != nullptr) {
        json->row({{"scenario", s.name},
                   {"row", rows[i].label},
                   {"orch", rows[i].orch()},
                   {"policy", rows[i].policy.spec()},
                   {"replicas",
                    static_cast<std::uint64_t>(rows[i].replicas())},
                   {"coordinated", rows[i].coordinated()},
                   {"workload", s.workload.spec()},
                   {"energy_j", r.power.energy},
                   {"saving_vs_always_on", r.power.saving_vs_always_on},
                   {"mean_resp_s", r.response.mean()},
                   {"p95_resp_s", r.response.p95()},
                   {"p99_resp_s", r.response.p99()},
                   {"spin_downs", r.power.spin_downs},
                   {"spin_ups", r.power.spin_ups},
                   {"requests", r.requests}});
      }
    }
    table.print(std::cout);

    // Strict domination vs the per-disk set's *per-axis minima*: the
    // coordinated row must beat the best per-disk energy AND the best
    // per-disk mean response at the same time.
    double best_energy = 0.0, best_mean = 0.0;
    bool first = true;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (rows[i].coordinated()) continue;
      const auto& r = results[i];
      if (first || total_energy(r) < best_energy) {
        best_energy = total_energy(r);
      }
      if (first || r.response.mean() < best_mean) {
        best_mean = r.response.mean();
      }
      first = false;
    }
    std::string dominator;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (!rows[i].coordinated()) continue;
      const auto& r = results[i];
      if (total_energy(r) < best_energy && r.response.mean() < best_mean) {
        if (!dominator.empty()) dominator += ", ";
        dominator += rows[i].label;
      }
    }
    std::cout << "  per-disk best: "
              << util::format_double(best_energy / 1000.0, 1) << " kJ / "
              << util::format_double(best_mean, 3)
              << " s; strictly dominated by: "
              << (dominator.empty() ? std::string{"(none)"} : dominator)
              << "\n\n";
    if (s.name == "diurnal") {
      diurnal_dominates = !dominator.empty();
      diurnal_dominator = dominator;
    }
  }

  // Every mechanism must change some output: across all scenarios, some
  // pair of rows that differ only in that mechanism must differ in energy,
  // mean or p99 response.
  bool every_mechanism_moves = true;
  for (const auto& m : mechanisms) {
    std::size_t pairs = 0, moved = 0;
    for (std::size_t sc = 0; sc < scenarios.size(); ++sc) {
      const std::size_t base = sc * rows.size();
      for (std::size_t i = 0; i < rows.size(); ++i) {
        for (std::size_t j = 0; j < rows.size(); ++j) {
          if (rows[i].*m.flag || !differ_only_in(rows[i], rows[j], m)) {
            continue;
          }
          ++pairs;
          if (!same_output(all_results[base + i], all_results[base + j])) {
            ++moved;
          }
        }
      }
    }
    std::cout << "mechanism " << m.name << ": " << moved << " of " << pairs
              << " add-one pairs change energy/mean/p99\n";
    if (moved == 0) {
      every_mechanism_moves = false;
      std::cout << "  FAIL: " << m.name
                << " changes no output in any scenario\n";
    }
  }

  // Shard identity: the all-mechanisms diurnal run at 4 shards must be bit
  // identical to its 1-shard row above.
  const auto& one_shard = all_results[rows.size() + rows.size() - 1];
  const auto& four_shards = all_results[scenarios.size() * rows.size()];
  const bool shard_identity =
      total_energy(one_shard) == total_energy(four_shards) &&
      one_shard.response.mean() == four_shards.response.mean() &&
      one_shard.requests == four_shards.requests;
  std::cout << "shard identity (diurnal, all mechanisms, 1 vs 4 shards): "
            << (shard_identity ? "bit-identical" : "MISMATCH") << "\n";
  std::cout << "acceptance: diurnal coordinated row strictly dominates the "
               "per-disk set: "
            << (diurnal_dominates ? "yes (" + diurnal_dominator + ")" : "NO")
            << "\n";
  if (json != nullptr) {
    json->meta("diurnal_coordinated_dominates", diurnal_dominates);
    json->meta("shard_identity", shard_identity);
    json->meta("every_mechanism_moves", every_mechanism_moves);
    json->finish();
  }
  return diurnal_dominates && shard_identity && every_mechanism_moves ? 0
                                                                      : 1;
}
