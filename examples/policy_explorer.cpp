// policy_explorer.cpp — explore spin-down policies on a single disk.
//
// The paper's §2 surveys the dynamic power management literature: fixed
// break-even thresholds are 2-competitive, randomized thresholds get
// e/(e-1).  This example makes those results tangible: it feeds one disk a
// stream of idle gaps drawn from a chosen distribution, runs every policy,
// and reports measured energy and the competitive ratio against the
// offline optimum (computed from the realized gaps).
//
//   $ ./policy_explorer --gaps 2000 --dist exp --mean-gap 60 [--seed 1]
//     [--scheduler fcfs|sstf|scan|clook|batch] [--policy <spec>]
//   distributions: exp | uniform | bimodal (short bursts + long lulls)
//
// The online policies of src/adapt/ run in the same harness — they see the
// gap sequence once, learning from the observe_idle/observe_completion taps
// as they go, and pick their own point on the energy/response frontier
// (the ewma predictor spends energy headroom on response, the share
// combiner hugs the best fixed threshold).  --policy adds one extra row
// from a PolicySpec key ("fixed:30", "ewma:0.4", "share:20", "slack:10").
//
// --scheduler selects the disk's service discipline (sys::SchedulerSpec);
// with the default single-outstanding-request gap pattern the order cannot
// change, but geometry-aware disciplines replace the constant Table-2
// positioning cost with the calibrated seek curve, shifting both energy and
// response — a one-disk view of the ablation_schedulers grid.
#include <iostream>
#include <vector>

#include "disk/disk.h"
#include "disk/spin_policy.h"
#include "sys/system.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/units.h"

namespace {

using namespace spindown;

std::vector<double> draw_gaps(const std::string& dist, std::size_t n,
                              double mean_gap, util::Rng& rng) {
  std::vector<double> gaps;
  gaps.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (dist == "uniform") {
      gaps.push_back(rng.uniform(0.0, 2.0 * mean_gap));
    } else if (dist == "bimodal") {
      // 80% short gaps (burst), 20% long lulls — adversarial for fixed
      // thresholds sized to the mean.
      gaps.push_back(rng.uniform01() < 0.8
                         ? rng.exponential(1.0 / (0.2 * mean_gap))
                         : rng.exponential(1.0 / (4.2 * mean_gap)));
    } else {
      gaps.push_back(rng.exponential(1.0 / mean_gap));
    }
  }
  return gaps;
}

/// Simulate one disk fed requests separated by the given idle gaps; returns
/// the measured energy attributable to gap handling (idle + transitions +
/// standby) so it is directly comparable to offline_optimal_idle_energy.
util::Joules run_policy(const disk::DiskParams& params,
                        std::unique_ptr<disk::SpinDownPolicy> policy,
                        const sys::SchedulerSpec& scheduler,
                        const std::vector<double>& gaps, std::uint64_t seed,
                        std::uint64_t& spin_downs, double& mean_resp) {
  disk::Disk d{0, params, std::move(policy), util::Rng{seed},
               scheduler.queue()};

  const util::Bytes file = util::mb(72.0); // 1 s transfer
  const double svc = params.service_time(file);
  // Request k arrives svc + gap after request k-1: unless a spin-up delayed
  // that service, the disk then idles for exactly `gap`.
  double t = 0.0;
  std::uint64_t id = 0;
  d.submit(t, id++, file);
  for (const double gap : gaps) {
    t += svc + gap;
    d.submit(t, id++, file);
  }
  // The episode ends when the disk comes to rest after the last request.
  const double end = d.settle_all();
  const auto m = d.metrics(end);
  spin_downs = m.spin_downs;
  mean_resp = m.response.count() > 0
                  ? m.response.sum() / static_cast<double>(m.response.count())
                  : 0.0;
  // Subtract the service energy (identical across policies).
  const double busy =
      m.time_in(disk::PowerState::kPositioning) * params.seek_w +
      m.time_in(disk::PowerState::kTransfer) * params.active_w;
  return m.energy(params) - busy;
}

} // namespace

int main(int argc, char** argv) {
  using namespace spindown;
  const util::Cli cli{argc, argv};
  if (cli.has("help")) {
    std::cout << "usage: " << cli.program()
              << " [--gaps 2000] [--dist exp|uniform|bimodal]"
                 " [--mean-gap 60] [--seed 1]"
                 " [--scheduler fcfs|sstf|scan|clook|batch]"
                 " [--policy <spec>]\n";
    return 0;
  }
  const auto n_gaps = static_cast<std::size_t>(cli.get_int("gaps", 2000));
  const double mean_gap = cli.get_double("mean-gap", 60.0);
  const std::string dist = cli.get("dist", "exp");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const auto scheduler =
      sys::SchedulerSpec::parse(cli.get("scheduler", "fcfs"));

  const auto params = disk::DiskParams::st3500630as();
  util::Rng rng{seed};
  const auto gaps = draw_gaps(dist, n_gaps, mean_gap, rng);

  std::cout << "disk: " << params.model << ", break-even threshold "
            << util::format_seconds(params.break_even_threshold()) << "\n";
  std::cout << "gaps: " << n_gaps << " x " << dist << " (mean "
            << util::format_seconds(mean_gap) << "), scheduler "
            << scheduler.spec() << "\n\n";

  const util::Joules opt = disk::offline_optimal_idle_energy(params, gaps);

  std::vector<std::pair<std::string, sys::PolicySpec>> policies{
      {"never spin down", sys::PolicySpec::never()},
      {"immediate", sys::PolicySpec::fixed(0.0)},
      {"fixed mean/2", sys::PolicySpec::fixed(0.5 * mean_gap)},
      {"break-even (2-competitive)", sys::PolicySpec::break_even()},
      {"randomized (e/(e-1))", sys::PolicySpec::randomized()},
      {"ewma predictor (online)", sys::PolicySpec::ewma()},
      {"share combiner (online)", sys::PolicySpec::share()},
  };
  if (cli.has("policy")) {
    const auto spec = sys::PolicySpec::parse(cli.get("policy", "break-even"));
    policies.emplace_back("--policy " + spec.spec(), spec);
  }

  util::TablePrinter table{{"policy", "gap energy (kJ)", "vs offline opt",
                            "spin-downs", "mean resp (s)"}};
  for (const auto& [name, spec] : policies) {
    std::uint64_t spin_downs = 0;
    double mean_resp = 0.0;
    const auto energy =
        run_policy(params, spec.make(params), scheduler, gaps, seed,
                   spin_downs, mean_resp);
    table.row(name, util::format_double(energy / 1000.0, 1),
              util::format_double(energy / opt, 3), spin_downs,
              util::format_double(mean_resp, 2));
  }
  table.print(std::cout);
  std::cout << "\noffline optimum (sees the future): "
            << util::format_double(opt / 1000.0, 1) << " kJ\n"
            << "theory: break-even <= 2x optimum on every input; the\n"
            << "randomized policy averages ~1.58x against oblivious inputs\n";
  return 0;
}
