// capacity_planning.cpp — size a disk farm for a workload under response
// constraints.
//
// The paper's conclusions: "The results of this paper can also be used as a
// tool for obtaining reliable estimates on the size of a disk farm needed to
// support a given workload of requests while satisfying constraints on I/O
// response times."  This example is that tool: given a workload description
// (file count, size skew, request rate), it sweeps the load constraint L,
// packs with Pack_Disks, verifies each candidate with a short simulation,
// and reports the smallest farm meeting a target mean response time,
// together with its predicted power bill.  Each candidate is a
// ScenarioSpec; the lines under the table re-run them with
// `spindown_run --scenario`.
//
//   $ ./capacity_planning --files 40000 --rate 4.0 --target-resp 12
//     (also: --kwh-price 0.12, --seed 1)
#include <iostream>
#include <optional>

#include "core/bounds.h"
#include "core/normalize.h"
#include "core/queueing.h"
#include "sys/scenario.h"
#include "sys/sweep.h"
#include "util/cli.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace spindown;
  const util::Cli cli{argc, argv};
  if (cli.has("help")) {
    std::cout << "usage: " << cli.program()
              << " [--files 40000] [--rate 4.0] [--target-resp 12]"
                 " [--kwh-price 0.12] [--seed 1]\n";
    return 0;
  }
  const auto n_files = static_cast<std::size_t>(cli.get_int("files", 40'000));
  const double rate = cli.get_double("rate", 4.0);
  const double target_resp = cli.get_double("target-resp", 12.0);
  const double kwh_price = cli.get_double("kwh-price", 0.12);
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));

  // One scenario per candidate load constraint L, each packed, predicted
  // in closed form (M/G/1 per disk) and then simulated briefly.
  const std::vector<double> loads{0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9};
  sys::ScenarioSpec base;
  base.catalog = sys::CatalogSpec::table1(n_files);
  base.workload = sys::WorkloadSpec::poisson(rate, 2000.0);
  base.seed = seed;
  sys::ScenarioCache cache;
  std::vector<sys::ScenarioSpec> specs;
  std::vector<sys::ResolvedScenario> resolved;
  std::vector<sys::ExperimentConfig> configs;
  std::vector<std::uint32_t> farm_sizes;
  std::vector<double> mg1_predictions;
  for (const double l : loads) {
    specs.push_back(base);
    specs.back().load_fraction = l;
    resolved.push_back(cache.resolve(specs.back()));
    const auto& cfg = resolved.back().config;
    core::LoadModel model;
    model.rate = rate;
    model.load_fraction = l;
    mg1_predictions.push_back(
        core::predict_mg1(*cfg.catalog,
                          core::Assignment{cfg.mapping, cfg.num_disks}, model)
            .mean_response);
    farm_sizes.push_back(cfg.num_disks);
    configs.push_back(cfg);
  }
  const auto& catalog = *resolved.front().catalog;

  std::cout << "workload: " << catalog.size() << " files, "
            << util::format_bytes(catalog.total_bytes()) << ", R = " << rate
            << " req/s, target mean response " << target_resp << " s\n\n";

  const auto results = sys::run_sweep(configs);

  util::TablePrinter table{{"L", "disks", "predicted resp (s)",
                            "mean resp (s)", "p95 (s)", "avg power (W)",
                            "energy $/yr", "meets target"}};
  std::optional<std::size_t> best;
  for (std::size_t i = 0; i < loads.size(); ++i) {
    const auto& r = results[i];
    const double yearly_kwh = r.power.average_power * 24.0 * 365.0 / 1000.0;
    const bool ok = r.response.mean() <= target_resp;
    if (ok) {
      // Prefer the fewest disks among feasible candidates; ties go to the
      // lower power draw.
      if (!best.has_value() || farm_sizes[i] < farm_sizes[*best] ||
          (farm_sizes[i] == farm_sizes[*best] &&
           r.power.average_power < results[*best].power.average_power)) {
        best = i;
      }
    }
    table.row(util::format_double(loads[i], 1), farm_sizes[i],
              util::format_double(mg1_predictions[i], 2),
              util::format_double(r.response.mean(), 2),
              util::format_double(r.response.p95(), 2),
              util::format_double(r.power.average_power, 1),
              util::format_double(yearly_kwh * kwh_price, 0),
              ok ? "yes" : "no");
  }
  table.print(std::cout);
  for (const auto& spec : specs) {
    std::cout << "scenario: " << spec.spec() << "\n";
  }

  const auto report = core::bound_report(
      core::normalize(catalog, [&] {
        core::LoadModel m;
        m.rate = rate;
        m.load_fraction = 1.0;
        return m;
      }()));
  std::cout << "\nabsolute floor (space/load lower bound, L=1): "
            << report.lower_bound << " disks\n";

  if (best.has_value()) {
    std::cout << "\nrecommendation: L = " << loads[*best] << " -> "
              << farm_sizes[*best] << " disks, mean response "
              << util::format_double(results[*best].response.mean(), 2)
              << " s, " << util::format_double(
                     results[*best].power.average_power, 0)
              << " W average draw\n";
  } else {
    std::cout << "\nno candidate met the target; lower L further or add "
                 "spindles beyond the packing (e.g. replicas)\n";
  }
  return 0;
}
