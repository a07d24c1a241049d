// quickstart.cpp — the 60-second tour of the library.
//
// Names two experiments as ScenarioSpec strings — the paper's Pack_Disks
// allocation and the random baseline on the same farm and workload — runs
// both, and prints the power/latency trade-off: the paper's core result in
// miniature.  Each printed scenario string can be replayed verbatim with
// examples/spindown_run.cpp.
//
//   $ ./quickstart [--files 2000] [--rate 2.0] [--seed 1]
#include <iostream>

#include "sys/scenario.h"
#include "util/cli.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace spindown;
  const util::Cli cli{argc, argv};
  if (cli.has("help")) {
    std::cout << "usage: " << cli.program()
              << " [--files 2000] [--rate 2.0] [--seed 1]\n";
    return 0;
  }
  const auto n_files = static_cast<std::size_t>(cli.get_int("files", 2000));
  const double rate = cli.get_double("rate", 2.0);
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));

  // 1. The whole experiment as a value: a Table 1-style catalog (Zipf-like
  //    popularity, inverse-Zipf sizes), packed with the paper's algorithm,
  //    under a Poisson read workload.
  sys::ScenarioSpec packed;
  packed.catalog = sys::CatalogSpec::table1(n_files);
  packed.placement = sys::PlacementSpec::pack();
  packed.load_fraction = 0.7;
  packed.workload = sys::WorkloadSpec::poisson(rate, 4000.0);
  packed.seed = seed;

  // 2. Resolve it to see the allocation; the cache memoizes the catalog and
  //    packing across every scenario derived from the same keys.
  sys::ScenarioCache cache;
  const auto first = cache.resolve(packed);
  std::cout << "catalog: " << first.catalog->size() << " files, "
            << util::format_bytes(first.catalog->total_bytes()) << " total\n";
  const std::uint32_t packed_disks = first.config.num_disks;

  // 3. The comparison farm: random placement spreads over 3x the disks
  //    Pack_Disks needs (at least 20), both scenarios simulated on it.
  const std::uint32_t farm = std::max<std::uint32_t>(packed_disks * 3, 20);
  packed = packed.with("disks", std::to_string(farm));
  const auto random =
      packed.with("placement", "random").with("label", "random");
  std::cout << "pack_disks uses " << packed_disks << " of " << farm
            << " disks; random spreads over all " << farm << "\n\n";
  std::cout << "scenarios:\n  " << packed.spec() << "\n  " << random.spec()
            << "\n\n";

  // 4. Run both (same catalog, same workload, same farm).
  const auto pack_result = sys::run_experiment(cache.resolve(packed).config);
  const auto rnd_result = sys::run_experiment(cache.resolve(random).config);

  // 5. The trade-off, in one table.
  util::TablePrinter table{
      {"allocation", "avg power", "energy saving", "mean resp", "p95 resp"}};
  auto add = [&](const std::string& name, const sys::RunResult& r) {
    table.row(name,
              util::format_double(r.power.average_power, 1) + " W",
              util::format_double(100.0 * r.power.saving_vs_always_on, 1) + "%",
              util::format_seconds(r.response.mean()),
              util::format_seconds(r.response.p95()));
  };
  add("pack_disks", pack_result);
  add("random", rnd_result);
  table.print(std::cout);

  const double ratio = rnd_result.power.energy > 0
                           ? 1.0 - pack_result.power.energy /
                                       rnd_result.power.energy
                           : 0.0;
  std::cout << "\npack_disks uses "
            << util::format_double(100.0 * ratio, 1)
            << "% less energy than random placement on this workload.\n"
            << "replay either line above with: spindown_run --scenario '...'\n";
  return 0;
}
