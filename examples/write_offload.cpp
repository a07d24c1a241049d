// write_offload.cpp — §1.1's energy-friendly write path, demonstrated.
//
// "in case the access sequence includes write requests we propose to ...
//  write files into an already spinning disk if sufficient space is found on
//  it or write it into any other disk (using best-fit or first-fit policy)"
//
// A Poisson stream of writes (every request a write: orch writes:1) lands
// on a packed 2000-file Table 1 farm whose disks spin down at the break-even
// threshold.  Two scenarios are compared:
//   * orch=off: every write goes to its file's home disk, spinning it up
//     when it sleeps;
//   * orch=offload+writes:1: a write aimed at a sleeping disk lands on an
//     always-on log disk instead (best fit over the log tier) and is
//     destaged when its home disk next spins or at the destage deadline.
// Off-loading avoids spin-ups at the cost of the log disk's own power and
// the deferred destages — both sides of §1.1's trade-off appear in the
// table (spin-ups and energy vs write latency).
//
//   $ ./write_offload [--rate 0.2] [--seed 1]
#include <iostream>
#include <string>
#include <vector>

#include "sys/scenario.h"
#include "util/cli.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace spindown;
  const util::Cli cli{argc, argv};
  if (cli.has("help")) {
    std::cout << "usage: " << cli.program()
              << " [--rate 0.2] [--seed 1]\n";
    return 0;
  }
  const double rate = cli.get_double("rate", 0.2);
  const auto seed = cli.get_int("seed", 1);

  const auto off = sys::ScenarioSpec::parse(
      "catalog=table1(2000) placement=pack load=0.7 workload=poisson(" +
      std::to_string(rate) + ",20000) seed=" + std::to_string(seed) +
      " label=write-home");
  const std::vector<sys::ScenarioSpec> specs{
      off, off.with("orch", "offload+writes:1").with("label", "off-load")};
  const auto results = sys::run_scenarios(specs);

  std::cout << "write workload: every request a write at " << rate
            << "/s for 20000 s (break-even spin-down)\n";
  util::TablePrinter table{{"strategy", "disks", "spin-ups", "energy (MJ)",
                            "mean write latency (s)", "p99 (s)",
                            "requests"}};
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto& r = results[i];
    table.row(specs[i].label, r.per_disk.size(), r.power.spin_ups,
              util::format_double(r.power.energy / 1e6, 3),
              util::format_double(r.response.mean(), 2),
              util::format_double(r.response.p99(), 2), r.requests);
  }
  table.print(std::cout);

  std::cout << "\noff-loading avoids "
            << static_cast<long long>(results[0].power.spin_ups) -
                   static_cast<long long>(results[1].power.spin_ups)
            << " spin-ups; replay either row with: spindown_run --scenario '"
            << specs[1].spec() << "'\n";
  return 0;
}
