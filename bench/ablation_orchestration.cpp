// ablation_orchestration.cpp — fleet power orchestration vs per-disk
// adaptation.
//
// The adaptive ablation (ablation_adaptive.cpp) lets every spindle pick its
// own threshold; this one keeps the per-disk policy fixed and moves the
// coordination *across* disks instead, on the identical catalog, farm, and
// workload grid (stationary / diurnal / bursty, same seed), so rows are
// directly comparable between the two committed baselines.  Mechanisms
// (src/orch/), ablated one at a time and together:
//
//   * redirect        — replicas=2 + replica-aware read redirection: the
//     deterministic lowest-id tie-break concentrates reads on a prefix of
//     the fleet, so the disks holding only cold copies sleep through;
//   * offload         — a 1-disk always-on log tier absorbs writes aimed at
//     sleeping disks and destages them in batches (honest cost: the log
//     disk's own idle draw is included in fleet energy);
//   * redirect+budget — the global SLO sleep budget on top of redirection:
//     the awake-disk quota from the fleet arrival estimate and streaming
//     p99 (Liu et al.'s closed form) decides *how many* disks the
//     redirection prefix may use.  The budget only expresses itself through
//     routing, so it rides on redirect;
//   * all             — all three mechanisms from one scenario string.
//
// The per-disk reference rows are the adaptive ablation's policy set run
// orchestration-off.  Acceptance (the tentpole's headline): on the diurnal
// scenario some coordinated row must *strictly dominate* the per-disk set —
// lower energy than the best per-disk energy AND lower mean response than
// the best per-disk mean — and the coordinated run must be bit-identical
// across shard counts.
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
  std::string orch;           ///< OrchSpec string, "off" for per-disk rows
  sys::PolicySpec policy;
  std::uint32_t replicas = 1;
  bool coordinated = false;
};

double total_energy(const sys::RunResult& r) { return r.power.energy; }

} // namespace

int main(int argc, char** argv) {
  const util::Cli cli{argc, argv};
  if (cli.has("help")) {
    std::cout << "usage: " << cli.program()
              << " [--quick] [--csv <path>] [--json <path>] [--seed <n>]"
                 " [--threads <n>] [--slo <s>]\n"
                 "fleet orchestration (redirect/offload/budget) x workload "
                 "grid\n";
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

  const std::string budget_key = "budget:p99:" + util::format_roundtrip(slo);
  const std::vector<OrchRow> rows{
      // Per-disk reference set: the adaptive ablation's policies, orch off.
      {"break-even", "off", sys::PolicySpec::break_even(), 1, false},
      {"ewma", "off", sys::PolicySpec::ewma(), 1, false},
      {"share", "off", sys::PolicySpec::share(), 1, false},
      {"slack", "off", sys::PolicySpec::slack(slo), 1, false},
      // Coordinated set: per-disk policy pinned to break-even so every
      // delta below is attributable to the fleet-level mechanism.
      {"redirect", "redirect", sys::PolicySpec::break_even(), 2, true},
      {"offload", "offload:1", sys::PolicySpec::break_even(), 1, true},
      {"redirect+budget", "redirect+" + budget_key,
       sys::PolicySpec::break_even(), 2, true},
      {"all", "redirect+offload:1+" + budget_key,
       sys::PolicySpec::break_even(), 2, true},
      // Coordination composes with per-disk adaptation: the same fleet
      // mechanisms over the adaptive ewma policy instead of break-even.
      {"redirect+budget x ewma", "redirect+" + budget_key,
       sys::PolicySpec::ewma(), 2, true},
      {"all x ewma", "redirect+offload:1+" + budget_key,
       sys::PolicySpec::ewma(), 2, true},
  };

  auto config_for = [&](const Scenario& s, const OrchRow& row) {
    sys::ExperimentConfig cfg;
    cfg.label = s.name + " x " + row.label;
    cfg.catalog = &catalog;
    cfg.mapping = assignment.disk_of;
    cfg.policy = row.policy;
    cfg.workload = s.workload;
    cfg.seed = seed;
    cfg.orch = sys::OrchSpec::parse(row.orch);
    cfg.replicas = row.replicas;
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
                      "coordinated spin state: redirect / offload / budget");
  std::cout << "catalog: " << catalog.size() << " files, "
            << util::format_bytes(catalog.total_bytes()) << " on " << farm
            << " data disks (break-even " << util::format_seconds(B)
            << "); horizon " << util::format_seconds(horizon)
            << ", budget SLO p99 < " << util::format_seconds(slo) << "\n\n";

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
      table.row(rows[i].label, rows[i].orch,
                util::format_double(r.power.energy / 1000.0, 1),
                util::format_double(r.power.saving_vs_always_on, 4),
                util::format_double(r.response.mean(), 3),
                util::format_double(r.response.p95(), 3),
                util::format_double(r.response.p99(), 3), r.power.spin_ups);
      if (csv != nullptr) {
        csv->row(s.name, rows[i].orch, rows[i].policy.spec(),
                 rows[i].replicas, s.workload.spec(), r.power.energy,
                 r.power.saving_vs_always_on, r.response.mean(),
                 r.response.p95(), r.response.p99(), r.power.spin_downs,
                 r.power.spin_ups, r.requests);
      }
      if (json != nullptr) {
        json->row({{"scenario", s.name},
                   {"row", rows[i].label},
                   {"orch", rows[i].orch},
                   {"policy", rows[i].policy.spec()},
                   {"replicas", static_cast<std::uint64_t>(rows[i].replicas)},
                   {"coordinated", rows[i].coordinated},
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
      if (rows[i].coordinated) continue;
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
      if (!rows[i].coordinated) continue;
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
    json->finish();
  }
  return diurnal_dominates && shard_identity ? 0 : 1;
}
