// ablation_adaptive.cpp — adaptive spin-down policies × non-stationary
// workloads.
//
// The paper fixes the idleness threshold offline (break-even by default,
// swept in Figures 5/6), which is the right answer only when the workload
// is stationary.  This ablation crosses the online policies of src/adapt/
// with workloads whose rate moves:
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
// Baselines: break-even, the e/(e-1) randomized policy, and "fixed-best" —
// the per-scenario winner of an *offline* sweep over fixed thresholds
// (lowest energy among thresholds whose mean response stays within 2% of
// break-even's), i.e. the paper's Figure-5/6 methodology applied per
// scenario.  The adaptive policies get no such oracle: they see each
// scenario once, online.
//
//   $ ./ablation_adaptive [--quick] [--csv g.csv] [--json BENCH_adaptive.json]
//     [--seed 1] [--threads n] [--slo 30]
//
// The committed BENCH_adaptive.json baseline is the full (non-quick) run;
// regenerate with:  ./ablation_adaptive --json BENCH_adaptive.json
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

struct PolicyRow {
  std::string label;
  sys::PolicySpec policy;
  bool adaptive = false;
};

struct ScenarioResult {
  std::string scenario;
  std::string workload_key;
  std::vector<PolicyRow> rows;
  std::vector<sys::RunResult> results; ///< parallel to rows
};

double total_energy(const sys::RunResult& r) { return r.power.energy; }

} // namespace

int main(int argc, char** argv) {
  const util::Cli cli{argc, argv};
  if (cli.has("help")) {
    std::cout << "usage: " << cli.program()
              << " [--quick] [--csv <path>] [--json <path>] [--seed <n>]"
                 " [--threads <n>] [--slo <s>]\n"
                 "adaptive spin-down policy x non-stationary workload grid\n";
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
  std::vector<PolicyRow> policy_rows{
      {"break-even", sys::PolicySpec::break_even(), false},
      {"randomized", sys::PolicySpec::randomized(), false},
      {"ewma", sys::PolicySpec::ewma(), true},
      {"share", sys::PolicySpec::share(), true},
      {"slack", sys::PolicySpec::slack(slo), true},
  };

  auto config_for = [&](const Scenario& s, const sys::PolicySpec& policy) {
    sys::ExperimentConfig cfg;
    cfg.catalog = &catalog;
    cfg.mapping = assignment.disk_of;
    cfg.num_disks = farm;
    cfg.policy = policy;
    cfg.workload = s.workload;
    cfg.seed = seed;
    return cfg;
  };

  std::vector<sys::ExperimentConfig> configs;
  for (const auto& s : scenarios) {
    for (const double t : fixed_grid) {
      configs.push_back(config_for(s, sys::PolicySpec::fixed(t)));
    }
    for (const auto& row : policy_rows) {
      configs.push_back(config_for(s, row.policy));
    }
  }

  bench::print_header("Adaptive spin-down x non-stationary workloads",
                      "beyond the paper: online threshold adaptation");
  std::cout << "catalog: " << catalog.size() << " files, "
            << util::format_bytes(catalog.total_bytes()) << " on " << farm
            << " disks; busy gap ~" << util::format_seconds(gap_busy)
            << "/disk, shoulder ~65 s, night ~"
            << util::format_seconds(static_cast<double>(farm) / night_rate)
            << " (break-even " << util::format_seconds(B) << ")\n"
            << "horizon " << util::format_seconds(horizon)
            << ", slack SLO p99 < " << util::format_seconds(slo) << "\n\n";

  const auto all_results = sys::run_sweep(configs, threads);

  util::CsvWriter* csv = nullptr;
  std::unique_ptr<util::CsvWriter> csv_holder;
  if (cli.has("csv")) {
    csv_holder = std::make_unique<util::CsvWriter>(
        std::filesystem::path{cli.get("csv", "ablation_adaptive.csv")});
    csv = csv_holder.get();
    csv->write_row({"scenario", "policy", "workload", "energy_j",
                    "saving_vs_always_on", "mean_resp_s", "p95_resp_s",
                    "p99_resp_s", "spin_downs", "spin_ups", "requests"});
  }
  std::unique_ptr<bench::JsonWriter> json;
  if (cli.has("json")) {
    json = std::make_unique<bench::JsonWriter>(
        std::filesystem::path{cli.get("json", "BENCH_adaptive.json")},
        "ablation_adaptive", quick, seed);
    json->meta("farm_disks", static_cast<std::uint64_t>(farm));
    json->meta("break_even_s", B);
    json->meta("slo_p99_s", slo);
    json->meta("horizon_s", horizon);
  }

  // Per-scenario reporting: resolve fixed-best, print the table, emit rows,
  // and collect the acceptance verdicts.
  bool nonstationary_dominated = true;
  bool stationary_within_10pct = true;
  std::size_t idx = 0;
  for (const auto& s : scenarios) {
    std::vector<sys::RunResult> fixed_results;
    for (std::size_t i = 0; i < fixed_grid.size(); ++i) {
      fixed_results.push_back(all_results[idx++]);
    }
    std::vector<sys::RunResult> named_results;
    for (std::size_t i = 0; i < policy_rows.size(); ++i) {
      named_results.push_back(all_results[idx++]);
    }
    const auto& be = named_results[0]; // break-even is row 0

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
    util::TablePrinter table{{"policy", "energy (kJ)", "saving",
                              "mean resp (s)", "p95 (s)", "p99 (s)",
                              "spin-downs", "spin-ups"}};
    auto emit = [&](const std::string& label, const std::string& key,
                    const sys::RunResult& r, bool adaptive) {
      table.row(label, util::format_double(r.power.energy / 1000.0, 1),
                util::format_double(r.power.saving_vs_always_on, 4),
                util::format_double(r.response.mean(), 3),
                util::format_double(r.response.p95(), 3),
                util::format_double(r.response.p99(), 3), r.power.spin_downs,
                r.power.spin_ups);
      if (csv != nullptr) {
        csv->row(s.name, key, s.workload.spec(), r.power.energy,
                 r.power.saving_vs_always_on, r.response.mean(),
                 r.response.p95(), r.response.p99(), r.power.spin_downs,
                 r.power.spin_ups, r.requests);
      }
      if (json != nullptr) {
        json->row({{"scenario", s.name},
                   {"policy", key},
                   {"adaptive", adaptive},
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

    const std::string best_label =
        "fixed-best(" +
        util::format_seconds(have_best ? fixed_grid[best] : B) + ")";
    emit(best_label, sys::PolicySpec::fixed(fixed_grid[best]).spec(),
         fixed_results[best], false);
    for (std::size_t i = 0; i < policy_rows.size(); ++i) {
      emit(policy_rows[i].label, policy_rows[i].policy.spec(),
           named_results[i], policy_rows[i].adaptive);
    }
    table.print(std::cout);

    // Verdicts vs. break-even.
    if (s.name == "stationary") {
      for (std::size_t i = 0; i < policy_rows.size(); ++i) {
        if (!policy_rows[i].adaptive) continue;
        const auto& r = named_results[i];
        const double de =
            std::abs(total_energy(r) / total_energy(be) - 1.0);
        const double dr =
            std::abs(r.response.mean() / std::max(1e-12, be.response.mean()) -
                     1.0);
        const bool ok = de <= 0.10 && dr <= 0.10;
        stationary_within_10pct = stationary_within_10pct && ok;
        std::cout << "  " << policy_rows[i].label << ": energy "
                  << util::format_double(100.0 * de, 2) << "% / resp "
                  << util::format_double(100.0 * dr, 2)
                  << "% off break-even" << (ok ? "" : "  ** >10% **") << "\n";
      }
    } else {
      std::string dominator;
      for (std::size_t i = 0; i < policy_rows.size(); ++i) {
        if (!policy_rows[i].adaptive) continue;
        const auto& r = named_results[i];
        const bool energy_dom = total_energy(r) < total_energy(be) &&
                                r.response.mean() <= be.response.mean();
        const bool resp_dom = r.response.mean() < be.response.mean() &&
                              total_energy(r) <= total_energy(be);
        if (energy_dom || resp_dom) {
          if (!dominator.empty()) dominator += ", ";
          dominator += policy_rows[i].label;
        }
      }
      if (dominator.empty()) nonstationary_dominated = false;
      std::cout << "  dominates break-even: "
                << (dominator.empty() ? std::string{"(none)"} : dominator)
                << "\n";
    }
    std::cout << "\n";
  }

  std::cout << "acceptance: non-stationary scenarios each dominated by an "
               "adaptive policy: "
            << (nonstationary_dominated ? "yes" : "NO")
            << "; stationary parity within 10%: "
            << (stationary_within_10pct ? "yes" : "NO") << "\n";
  if (json != nullptr) {
    json->meta("nonstationary_dominated", nonstationary_dominated);
    json->meta("stationary_within_10pct", stationary_within_10pct);
    json->finish();
  }
  // Nonzero exit on a failed verdict so the CI perf-smoke step catches a
  // regression of the adaptive policies, not just a crash.
  return nonstationary_dominated && stationary_within_10pct ? 0 : 1;
}
