// spindown_run.cpp — the universal experiment driver: any point of the
// scenario space (catalog × placement × policy × scheduler × cache ×
// workload × seed) from one string, any grid from --sweep axes.
//
//   $ ./spindown_run --scenario 'catalog=table1(2000,1) placement=pack
//                                load=0.7 workload=poisson(2,1000)'
//   $ ./spindown_run --scenario '...' --sweep 'policy=break-even,never'
//                    --sweep 'seed=1,2,3' --json
//
// Sweep axes cross (every combination runs); values split on top-level
// commas, so workload=poisson(2,1000),poisson(6,1000) is two values.
// --json emits one JSON object per scenario per line (JSONL) on stdout.
#include <exception>
#include <iostream>
#include <string>
#include <vector>

#include "obs/export.h"
#include "obs/trace.h"
#include "sys/fleet.h"
#include "sys/scenario.h"
#include "sys/sweep.h"
#include "util/cli.h"
#include "util/table.h"

namespace {

using namespace spindown;

void print_usage(const std::string& program) {
  std::cout
      << "usage: " << program << " --scenario '<key=value ...>' [options]\n\n"
      << "options:\n"
      << "  --scenario <spec>  the experiment (required); keys:\n"
      << "      catalog=table1(n,seed)|synth(n,zipf,max,corr,seed)\n"
      << "              |nersc(files,requests,seed"
         "[,dur[,bfrac[,bmin[,bmax]]]])\n"
      << "              |trace:<stem>\n"
      << "      placement=pack|grouped:k|random|maid:c|sea:h|seg:k|ffd\n"
      << "      replicas=<k>    copies per file (read redirection)\n"
      << "      load=<(0,1]>    disks=<farm floor; 0 = allocator decides>\n"
      << "      policy=break-even|never|randomized|fixed:T|ewma[:a]\n"
      << "              |share[:n]|slack[:slo]\n"
      << "      sched=fcfs|sstf|scan|clook|batch[N[xG]]\n"
      << "      cache=none|lru:16g|fifo:4g|lfu:16g\n"
      << "      workload=poisson(R,T)|nhpp(t:r;...,T[,P])\n"
      << "              |mmpp(r0,r1,d0,d1,T)|trace:<stem>|replay\n"
      << "      seed=<n>  label=<name>  shards=<n|auto>\n"
      << "      obs=off|all|spans+power+policy+metrics[:iv]+profile\n"
      << "      orch=off|redirect|offload[:L[:deadline]]|writes:<frac>\n"
      << "              ('+'-joined; writes: needs offload)\n"
      << "  --sweep 'key=v1,v2,...'  cross one axis (repeatable; axes cross)\n"
      << "  --shards <n|auto>  shard each run's calendar (sys/fleet.h);\n"
      << "                     shorthand for shards=<v> in the scenario —\n"
      << "                     results are bit-identical at any count\n"
      << "  --trace <file>     write the run's trace (single scenario only):\n"
      << "                     .jsonl = one event per line, anything else =\n"
      << "                     Chrome trace_event JSON (load in Perfetto)\n"
      << "  --trace-filter <kinds>  which event families to record (ObsSpec\n"
      << "                     grammar; default: the scenario's obs= key, or\n"
      << "                     spans+power+policy when that is off)\n"
      << "  --metrics-interval <s>  sim-time gauge sampling period; implies\n"
      << "                     the metrics family\n"
      << "  --json             one JSON row per scenario on stdout (JSONL);\n"
      << "                     sharded runs include a fleet_perf object\n"
      << "  --threads <n>      parallel sweep width (default: hardware)\n"
      << "  --help             this text\n";
}

/// Split on commas at paren depth 0, so sweep values may themselves be
/// call-style keys: "poisson(2,1000),poisson(6,1000)" is two values.
std::vector<std::string> split_top_level(const std::string& s) {
  std::vector<std::string> out;
  std::string current;
  int depth = 0;
  for (const char c : s) {
    if (c == '(') ++depth;
    if (c == ')') --depth;
    if (c == ',' && depth == 0) {
      out.push_back(current);
      current.clear();
    } else {
      current += c;
    }
  }
  out.push_back(current);
  return out;
}

} // namespace

int main(int argc, char** argv) {
  const util::Cli cli{argc, argv};
  if (cli.has("help")) {
    print_usage(cli.program());
    return 0;
  }
  if (!cli.has("scenario")) {
    print_usage(cli.program());
    std::cerr << "\nerror: --scenario is required\n";
    return 2;
  }
  const bool json = cli.has("json");
  const auto threads = static_cast<unsigned>(cli.get_int("threads", 0));

  try {
    auto base = sys::ScenarioSpec::parse(cli.get("scenario", ""));
    if (cli.has("shards")) {
      base = base.with("shards", cli.get("shards", "auto"));
    }

    // Cross the sweep axes.  Each scenario remembers its swept values so
    // the table has one column per axis.
    std::vector<sys::ScenarioSpec> specs{base};
    std::vector<std::vector<std::string>> swept{{}};
    std::vector<std::string> axis_keys;
    for (const auto& axis : cli.get_all("sweep")) {
      const auto eq = axis.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 >= axis.size()) {
        std::cerr << "error: --sweep wants key=v1,v2,..., got '" << axis
                  << "'\n";
        return 2;
      }
      const std::string key = axis.substr(0, eq);
      const auto values = split_top_level(axis.substr(eq + 1));
      axis_keys.push_back(key);
      std::vector<sys::ScenarioSpec> next_specs;
      std::vector<std::vector<std::string>> next_swept;
      for (std::size_t i = 0; i < specs.size(); ++i) {
        for (const auto& value : values) {
          next_specs.push_back(specs[i].with(key, value));
          next_swept.push_back(swept[i]);
          next_swept.back().push_back(value);
        }
      }
      specs = std::move(next_specs);
      swept = std::move(next_swept);
    }

    // --trace records one run's observability stream; a sweep would
    // interleave runs, so tracing is restricted to a single scenario.
    const bool traced = cli.has("trace");
    if (!traced && (cli.has("trace-filter") || cli.has("metrics-interval"))) {
      std::cerr
          << "error: --trace-filter/--metrics-interval require --trace\n";
      return 2;
    }
    if (traced) {
      if (specs.size() != 1) {
        std::cerr << "error: --trace records exactly one scenario "
                     "(drop --sweep)\n";
        return 2;
      }
      auto& spec = specs[0];
      if (cli.has("trace-filter")) {
        spec.obs = sys::ObsSpec::parse(cli.get("trace-filter", ""));
      } else if (!spec.obs.enabled()) {
        spec.obs = sys::ObsSpec::parse("spans+power+policy");
      }
      if (cli.has("metrics-interval")) {
        const double interval = cli.get_double("metrics-interval", 60.0);
        if (!(interval > 0.0)) {
          std::cerr << "error: --metrics-interval wants a positive number "
                       "of sim seconds\n";
          return 2;
        }
        spec.obs.metrics = true;
        spec.obs.metrics_interval_s = interval;
      }
      base = spec;
    }

    auto& info = json ? std::cerr : std::cout;
    info << "running " << specs.size()
         << (specs.size() == 1 ? " scenario:\n" : " scenarios; base:\n")
         << "  " << base.spec() << "\n\n";

    // A lone scenario runs through the perf/trace-aware entry point (a
    // sweep keeps the parallel run_scenarios path; tracing is excluded
    // above and FleetPerf is one-run diagnostics).
    std::vector<sys::RunResult> results;
    obs::RunTrace trace;
    sys::FleetPerf perf;
    bool have_perf = false;
    if (specs.size() == 1) {
      results.push_back(
          sys::run_scenario(specs[0], traced ? &trace : nullptr, &perf));
      have_perf = true;
      if (traced) {
        const std::string path = cli.get("trace", "");
        if (!obs::write_trace_file(path, trace)) {
          std::cerr << "error: cannot write trace to '" << path << "'\n";
          return 1;
        }
        info << "trace: " << trace.events.size() << " events";
        if (!trace.profile.empty()) {
          info << " + " << trace.profile.size() << " profile samples";
        }
        info << " -> " << path << "\n\n";
      }
    } else {
      results = sys::run_scenarios(specs, threads);
    }

    if (json) {
      for (std::size_t i = 0; i < specs.size(); ++i) {
        std::string row = sys::to_json(specs[i], results[i]);
        if (have_perf && specs[i].shards != 1) {
          // Splice the pipeline diagnostics into the scenario row.
          row.pop_back();
          row += ", \"fleet_perf\": " + sys::to_json(perf) + "}";
        }
        std::cout << row << "\n";
      }
      return 0;
    }

    std::vector<std::string> header = axis_keys;
    for (const auto* col :
         {"disks", "energy (kJ)", "saving", "avg W", "mean resp (s)",
          "p95 (s)", "p99 (s)", "spin-ups", "cache hit%"}) {
      header.emplace_back(col);
    }
    util::TablePrinter table{header};
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const auto& r = results[i];
      std::vector<std::string> row = swept[i];
      row.push_back(std::to_string(r.per_disk.size()));
      row.push_back(util::format_double(r.power.energy / 1000.0, 1));
      row.push_back(util::format_double(r.power.saving_vs_always_on, 3));
      row.push_back(util::format_double(r.power.average_power, 1));
      row.push_back(util::format_double(r.response.mean(), 2));
      row.push_back(util::format_double(r.response.p95(), 2));
      row.push_back(util::format_double(r.response.p99(), 2));
      row.push_back(std::to_string(r.power.spin_ups));
      row.push_back(util::format_double(100.0 * r.cache.hit_ratio(), 1));
      table.add_row(row);
    }
    table.print(std::cout);
    if (specs.size() == 1) {
      std::cout << "\nreproduce with:\n  " << cli.program() << " --scenario '"
                << specs[0].spec() << "'\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
