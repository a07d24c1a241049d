// ablation_orchestration.cpp — per-disk spin-down adaptation and fleet
// power orchestration × non-stationary workloads.
//
// The paper fixes the idleness threshold offline (break-even by default,
// swept in Figures 5/6), which is the right answer only when the workload
// is stationary.  This ablation asks what beats it when the rate moves, on
// one packed farm and three workloads (same catalog, same seed):
//
//   * stationary  — Table-1-style Poisson at the busy rate.  The adaptive
//     policies must match break-even here (they have nothing to adapt to).
//   * diurnal     — a periodic NHPP with three phases per cycle: busy
//     (idle gaps far below break-even), shoulder (gaps *around* break-even
//     — the fixed policy's dead zone, where spinning down loses energy and
//     delays the next arrival), and night (gaps far above break-even,
//     where waiting out the threshold at idle power is pure waste).
//   * bursty      — a 2-state MMPP alternating shoulder-grade bursts with
//     deep lulls: every visit to the burst state parks the fixed policy in
//     its dead zone, every lull rewards parking immediately.
//
// Per-disk rows let every spindle pick its own threshold online with the
// policies of src/adapt/ (ewma, share, slack).  Their baselines are
// break-even, the e/(e-1) randomized policy, and "fixed-best" — the
// per-scenario winner of an *offline* sweep over fixed thresholds (lowest
// energy among thresholds whose mean response stays within 2% of
// break-even's), i.e. the paper's Figure-5/6 methodology applied per
// scenario.  The adaptive policies get no such oracle: they see each
// scenario once, online.
//
// Coordinated rows keep the per-disk policy fixed and coordinate spin state
// across disks instead (src/orch/):
//
//   * redirect — replicas=2 + replica-aware read redirection: the
//     deterministic lowest-id tie-break concentrates reads on a prefix of
//     the fleet, so the disks holding only cold copies sleep through;
//   * offload  — a 1-disk always-on log tier absorbs writes aimed at
//     sleeping disks and destages them in batches (honest cost: the log
//     disk's own idle draw is included in fleet energy).
//
// They are the full 2x2 grid over {redirect, offload}, once over
// break-even and once over ewma; the grid's off corners are the per-disk
// rows of the same policy.  The bench exits non-zero unless:
//   * on the stationary scenario every adaptive policy stays within 10% of
//     break-even in energy and in mean response;
//   * on each non-stationary scenario some adaptive policy dominates
//     break-even (lower energy at no worse mean response, or vice versa);
//   * on the diurnal scenario some coordinated row *strictly dominates*
//     the per-disk reference set (break-even, ewma, share, slack) — lower
//     energy than its best energy AND lower mean response than its best
//     mean;
//   * every mechanism changes some output: of all row pairs that differ
//     only in that mechanism, at least one differs in energy, mean or p99
//     response (a mechanism that moves nothing is dead weight);
//   * the coordinated run is bit-identical across shard counts.
//
//   $ ./ablation_orchestration [--quick] [--csv g.csv]
//     [--json BENCH_orchestration.json] [--seed 1] [--threads n] [--slo 12]
//
// The committed BENCH_orchestration.json baseline is the full run;
// regenerate with:  ./ablation_orchestration --json BENCH_orchestration.json
#include <algorithm>
#include <iostream>
#include <span>
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

struct Row {
  std::string label;
  sys::PolicySpec policy;
  bool adaptive = false;  ///< online per-disk threshold (src/adapt/)
  bool reference = false; ///< in the per-disk set coordinated rows must beat
  bool redirect = false;  ///< replicas=2 + read redirection
  bool offload = false;   ///< 1-disk log tier

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
  bool Row::*flag;
};

/// True when rows a and b differ in `m` and in nothing else.
bool differ_only_in(const Row& a, const Row& b, const Mechanism& m) {
  Row flipped = a;
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
                 "spin-down adaptation and fleet orchestration "
                 "(redirect/offload) x workload grid\n";
    return 0;
  }
  const bool quick = cli.has("quick");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const auto threads = static_cast<unsigned>(cli.get_int("threads", 0));
  const double slo = cli.get_double("slo", 12.0);

  // Catalog: Table-1 popularity, sizes capped at 32 MB so service times are
  // sub-second and the idle-gap structure (not transfer time) drives the
  // trade-off.
  workload::SyntheticSpec spec = workload::SyntheticSpec::paper_table1();
  spec.n_files = quick ? 500 : 1500;
  spec.max_size = util::mb(32.0);
  util::Rng rng{seed};
  const auto catalog = workload::generate_catalog(spec, rng);

  // Pack at a deliberately low load fraction: spin-down economics only
  // exist on mostly-idle disks (the MAID premise), and the busy-phase
  // per-disk idle gap is approximately E[service]/load_fraction.
  const double busy_rate = quick ? 1.5 : 3.0;
  core::LoadModel model;
  model.rate = busy_rate;
  model.load_fraction = 0.025;
  core::PackDisks pack;
  const auto assignment = pack.allocate(core::normalize(catalog, model));
  const std::uint32_t farm = assignment.disk_count;

  const disk::DiskParams params = disk::DiskParams::st3500630as();
  const double B = params.break_even_threshold();

  // Phase rates from per-disk idle-gap targets: the average per-disk
  // arrival rate is (system rate)/farm, so a target mean gap g implies a
  // system rate of farm/g.  Busy sits far below break-even, shoulder rides
  // the dead zone just past it, night sits far above.
  const double gap_busy = static_cast<double>(farm) / busy_rate;
  const double shoulder_rate = static_cast<double>(farm) / 65.0;
  const double night_rate = static_cast<double>(farm) / (quick ? 250.0 : 350.0);
  const double lull_rate = static_cast<double>(farm) / (quick ? 500.0 : 450.0);

  const double phase_s = quick ? 1500.0 : 3000.0;
  const double period = 3.0 * phase_s;
  const double horizon = (quick ? 2.0 : 3.0) * period;

  const std::vector<workload::RateSegment> diurnal{
      {0.0, busy_rate}, {phase_s, shoulder_rate}, {2.0 * phase_s, night_rate}};
  // Shoulder-grade bursts against deep lulls: both regimes where the fixed
  // break-even threshold is wrong, in opposite directions — it keeps paying
  // unprofitable parks during bursts and keeps idling out the full
  // threshold during lulls.
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

  // The offline fixed-threshold sweep that defines "fixed-best".
  const std::vector<double> fixed_grid{0.0,     B / 8.0, B / 4.0, B / 2.0,
                                       B,       1.5 * B, 2.0 * B, 3.0 * B};
  const std::vector<Row> rows{
      // Per-disk rows, orchestration off.  Row 0 is the break-even
      // baseline every verdict compares against.
      {.label = "break-even",
       .policy = sys::PolicySpec::break_even(),
       .reference = true},
      {.label = "randomized", .policy = sys::PolicySpec::randomized()},
      {.label = "ewma",
       .policy = sys::PolicySpec::ewma(),
       .adaptive = true,
       .reference = true},
      {.label = "share",
       .policy = sys::PolicySpec::share(),
       .adaptive = true,
       .reference = true},
      {.label = "slack",
       .policy = sys::PolicySpec::slack(slo),
       .adaptive = true,
       .reference = true},
      // Coordinated set: per-disk policy pinned to break-even so every
      // delta is attributable to the fleet-level mechanism.
      {.label = "redirect",
       .policy = sys::PolicySpec::break_even(),
       .redirect = true},
      {.label = "offload",
       .policy = sys::PolicySpec::break_even(),
       .offload = true},
      {.label = "all",
       .policy = sys::PolicySpec::break_even(),
       .redirect = true,
       .offload = true},
      // Coordination composes with per-disk adaptation: the same fleet
      // mechanisms over the adaptive ewma policy instead of break-even.
      {.label = "redirect x ewma",
       .policy = sys::PolicySpec::ewma(),
       .adaptive = true,
       .redirect = true},
      {.label = "offload x ewma",
       .policy = sys::PolicySpec::ewma(),
       .adaptive = true,
       .offload = true},
      {.label = "all x ewma",
       .policy = sys::PolicySpec::ewma(),
       .adaptive = true,
       .redirect = true,
       .offload = true},
  };
  const std::vector<Mechanism> mechanisms{{"redirect", &Row::redirect},
                                          {"offload", &Row::offload}};

  auto config_for = [&](const Scenario& s, const Row& row) {
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

  // Per scenario: the fixed grid, then the rows.
  const std::size_t per_scenario = fixed_grid.size() + rows.size();
  std::vector<sys::ExperimentConfig> configs;
  for (const auto& s : scenarios) {
    for (const double t : fixed_grid) {
      configs.push_back(config_for(
          s, {.label = "fixed", .policy = sys::PolicySpec::fixed(t)}));
    }
    for (const auto& row : rows) configs.push_back(config_for(s, row));
  }
  // Shard-identity probe: the all-mechanisms diurnal run again at 4 shards
  // (configs[...] above all run at shards = 1).
  auto sharded = config_for(scenarios[1], rows.back());
  sharded.shards = 4;
  configs.push_back(sharded);

  bench::print_header("Spin-down adaptation and fleet orchestration x "
                      "non-stationary workloads",
                      "beyond the paper: online thresholds, coordinated "
                      "spin state");
  std::cout << "catalog: " << catalog.size() << " files, "
            << util::format_bytes(catalog.total_bytes()) << " on " << farm
            << " data disks; busy gap ~" << util::format_seconds(gap_busy)
            << "/disk, shoulder ~65 s, night ~"
            << util::format_seconds(static_cast<double>(farm) / night_rate)
            << " (break-even " << util::format_seconds(B) << ")\n"
            << "horizon " << util::format_seconds(horizon)
            << ", slack SLO p99 < " << util::format_seconds(slo) << "\n\n";

  const auto all_results = sys::run_sweep(configs, threads);
  const std::span<const sys::RunResult> all{all_results};
  auto fixed_results_of = [&](std::size_t sc) {
    return all.subspan(sc * per_scenario, fixed_grid.size());
  };
  auto row_results_of = [&](std::size_t sc) {
    return all.subspan(sc * per_scenario + fixed_grid.size(), rows.size());
  };

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

  bool stationary_within_10pct = true;
  bool nonstationary_dominated = true;
  bool diurnal_dominates = false;
  std::string diurnal_dominator;
  for (std::size_t sc = 0; sc < scenarios.size(); ++sc) {
    const auto& s = scenarios[sc];
    const auto fixed_results = fixed_results_of(sc);
    const auto results = row_results_of(sc);
    const auto& be = results[0];

    // Fixed-best: lowest energy among thresholds whose mean response stays
    // within 2% of break-even's (T = B is in the grid, so the set is never
    // empty).
    std::size_t best = 0;
    bool have_best = false;
    for (std::size_t i = 0; i < fixed_grid.size(); ++i) {
      if (fixed_results[i].response.mean() > be.response.mean() * 1.02) {
        continue;
      }
      if (!have_best ||
          total_energy(fixed_results[i]) < total_energy(fixed_results[best])) {
        best = i;
        have_best = true;
      }
    }

    std::cout << "--- " << s.name << "  [" << s.workload.spec() << "]\n";
    util::TablePrinter table{{"row", "orch", "energy (kJ)", "saving",
                              "mean resp (s)", "p95 (s)", "p99 (s)",
                              "spin-downs", "spin-ups"}};
    auto emit = [&](const Row& row, const sys::RunResult& r) {
      table.row(row.label, row.orch(),
                util::format_double(r.power.energy / 1000.0, 1),
                util::format_double(r.power.saving_vs_always_on, 4),
                util::format_double(r.response.mean(), 3),
                util::format_double(r.response.p95(), 3),
                util::format_double(r.response.p99(), 3), r.power.spin_downs,
                r.power.spin_ups);
      if (csv != nullptr) {
        csv->row(s.name, row.orch(), row.policy.spec(), row.replicas(),
                 s.workload.spec(), r.power.energy,
                 r.power.saving_vs_always_on, r.response.mean(),
                 r.response.p95(), r.response.p99(), r.power.spin_downs,
                 r.power.spin_ups, r.requests);
      }
      if (json != nullptr) {
        json->row({{"scenario", s.name},
                   {"row", row.label},
                   {"orch", row.orch()},
                   {"policy", row.policy.spec()},
                   {"replicas", static_cast<std::uint64_t>(row.replicas())},
                   {"adaptive", row.adaptive},
                   {"coordinated", row.coordinated()},
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
    };

    emit({.label = "fixed-best(" +
                   util::format_seconds(have_best ? fixed_grid[best] : B) +
                   ")",
          .policy = sys::PolicySpec::fixed(fixed_grid[best])},
         fixed_results[best]);
    for (std::size_t i = 0; i < rows.size(); ++i) emit(rows[i], results[i]);
    table.print(std::cout);

    // Per-disk adaptation vs. break-even.
    std::string adaptive_dominator;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (!rows[i].adaptive || rows[i].coordinated()) continue;
      const auto& r = results[i];
      if (s.name == "stationary") {
        const double de = std::abs(total_energy(r) / total_energy(be) - 1.0);
        const double dr =
            std::abs(r.response.mean() / std::max(1e-12, be.response.mean()) -
                     1.0);
        const bool ok = de <= 0.10 && dr <= 0.10;
        stationary_within_10pct = stationary_within_10pct && ok;
        std::cout << "  " << rows[i].label << ": energy "
                  << util::format_double(100.0 * de, 2) << "% / resp "
                  << util::format_double(100.0 * dr, 2)
                  << "% off break-even" << (ok ? "" : "  ** >10% **") << "\n";
        continue;
      }
      const bool energy_dom = total_energy(r) < total_energy(be) &&
                              r.response.mean() <= be.response.mean();
      const bool resp_dom = r.response.mean() < be.response.mean() &&
                            total_energy(r) <= total_energy(be);
      if (energy_dom || resp_dom) {
        if (!adaptive_dominator.empty()) adaptive_dominator += ", ";
        adaptive_dominator += rows[i].label;
      }
    }
    if (s.name != "stationary") {
      if (adaptive_dominator.empty()) nonstationary_dominated = false;
      std::cout << "  dominates break-even: "
                << (adaptive_dominator.empty() ? std::string{"(none)"}
                                               : adaptive_dominator)
                << "\n";
    }

    // Strict domination vs the per-disk reference set's *per-axis minima*:
    // the coordinated row must beat the best per-disk energy AND the best
    // per-disk mean response at the same time.
    double best_energy = 0.0, best_mean = 0.0;
    bool first = true;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (!rows[i].reference) continue;
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
      const auto results = row_results_of(sc);
      for (std::size_t i = 0; i < rows.size(); ++i) {
        for (std::size_t j = 0; j < rows.size(); ++j) {
          if (rows[i].*m.flag || !differ_only_in(rows[i], rows[j], m)) {
            continue;
          }
          ++pairs;
          if (!same_output(results[i], results[j])) ++moved;
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
  const auto& one_shard = row_results_of(1).back();
  const auto& four_shards = all_results.back();
  const bool shard_identity =
      total_energy(one_shard) == total_energy(four_shards) &&
      one_shard.response.mean() == four_shards.response.mean() &&
      one_shard.requests == four_shards.requests;
  std::cout << "shard identity (diurnal, all mechanisms, 1 vs 4 shards): "
            << (shard_identity ? "bit-identical" : "MISMATCH") << "\n";
  std::cout << "acceptance: non-stationary scenarios each dominated by an "
               "adaptive policy: "
            << (nonstationary_dominated ? "yes" : "NO")
            << "; stationary parity within 10%: "
            << (stationary_within_10pct ? "yes" : "NO") << "\n";
  std::cout << "acceptance: diurnal coordinated row strictly dominates the "
               "per-disk set: "
            << (diurnal_dominates ? "yes (" + diurnal_dominator + ")" : "NO")
            << "\n";
  if (json != nullptr) {
    json->meta("nonstationary_dominated", nonstationary_dominated);
    json->meta("stationary_within_10pct", stationary_within_10pct);
    json->meta("diurnal_coordinated_dominates", diurnal_dominates);
    json->meta("shard_identity", shard_identity);
    json->meta("every_mechanism_moves", every_mechanism_moves);
    json->finish();
  }
  // Nonzero exit on a failed verdict so the CI perf-smoke step catches a
  // regression, not just a crash.
  return stationary_within_10pct && nonstationary_dominated &&
                 diurnal_dominates && shard_identity && every_mechanism_moves
             ? 0
             : 1;
}
