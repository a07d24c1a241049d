// paper_workload.h — the paper's experimental setups as ScenarioSpec values.
//
// Figures 2-4 use the Table 1 synthetic workload: 40,000 files on a 100-disk
// farm, Poisson arrivals at R in [1, 12], simulated for 4000 s.  Figures 5/6
// use the (synthesized) NERSC trace on a 96-disk farm for 720 h.  Every
// setup is a sys::ScenarioSpec — a value with a canonical string — so each
// figure point is reproducible with examples/spindown_run.cpp:
//
//   $ ./spindown_run --scenario "$(this file's spec strings)"
//
// Catalog generation and packing are memoized inside sys::run_scenarios, so
// a figure's whole grid builds each catalog and each distinct mapping once.
#pragma once

#include <cstdint>
#include <iostream>
#include <span>
#include <string>
#include <vector>

#include "sys/scenario.h"
#include "workload/catalog.h"
#include "workload/nersc.h"

namespace spindown::bench {

/// One "scenario: <spec()>" line per table row, printed under the table,
/// so `spindown_run --scenario` can re-run any row.
inline void print_scenarios(std::span<const sys::ScenarioSpec> specs) {
  for (const auto& s : specs) std::cout << "scenario: " << s.spec() << "\n";
}

/// Table 1 constants.
inline constexpr std::uint32_t kPaperFarmDisks = 100;
inline constexpr double kPaperSimSeconds = 4000.0;

/// The Table 1 catalog as a value (for analyses that inspect the catalog
/// itself; experiment configs should go through table1-catalog scenarios).
inline workload::FileCatalog table1_catalog(std::uint64_t seed,
                                            std::size_t n_files = 40'000) {
  workload::SyntheticSpec spec = workload::SyntheticSpec::paper_table1();
  spec.n_files = n_files;
  util::Rng rng{seed};
  return workload::generate_catalog(spec, rng);
}

/// Pack_Disks at (R, L) on a farm of at least `farm` disks (grown if the
/// packing needs more).
inline sys::ScenarioSpec packed_scenario(double rate, double load_fraction,
                                         std::uint32_t farm,
                                         std::uint64_t seed,
                                         std::size_t n_files = 40'000) {
  sys::ScenarioSpec s;
  s.catalog = sys::CatalogSpec::table1(n_files);
  s.placement = sys::PlacementSpec::pack();
  s.load_fraction = load_fraction;
  s.disks = farm;
  s.workload = sys::WorkloadSpec::poisson(rate, kPaperSimSeconds);
  s.seed = seed;
  return s;
}

/// Random placement over exactly `farm` disks (the Figures 2-4 baseline).
inline sys::ScenarioSpec random_scenario(double rate, std::uint32_t farm,
                                         std::uint64_t seed,
                                         std::size_t n_files = 40'000) {
  sys::ScenarioSpec s;
  s.catalog = sys::CatalogSpec::table1(n_files);
  s.placement = sys::PlacementSpec::random();
  s.disks = farm;
  s.workload = sys::WorkloadSpec::poisson(rate, kPaperSimSeconds);
  s.seed = seed;
  return s;
}

/// The §5.1 NERSC synthesis, full-size or scaled for quick runs.  Scaling
/// keeps the full 30 days, so the per-disk arrival rate (what spin-down
/// economics depend on) matches the paper's 0.0447/s over 96 disks.
inline workload::NerscSpec nersc_paper_spec(bool full) {
  workload::NerscSpec spec = workload::NerscSpec::paper();
  if (!full) {
    spec.n_files = 20'000;
    spec.n_requests = 26'000;
  }
  return spec;
}

/// The five §5.1 configurations of Figures 5/6.
enum class NerscConfig { kRandom, kPack, kPack4, kRandomLru, kPack4Lru };

inline std::string to_string(NerscConfig c) {
  switch (c) {
    case NerscConfig::kRandom: return "RND";
    case NerscConfig::kPack: return "Pack_Disk";
    case NerscConfig::kPack4: return "Pack_Disk4";
    case NerscConfig::kRandomLru: return "RND+LRU";
    case NerscConfig::kPack4Lru: return "Pack_Disk4+LRU";
  }
  return "?";
}

inline constexpr NerscConfig kAllNerscConfigs[] = {
    NerscConfig::kRandom, NerscConfig::kPack, NerscConfig::kPack4,
    NerscConfig::kRandomLru, NerscConfig::kPack4Lru};

/// One §5.1 point: replay the synthesized trace under a configuration and
/// fixed idleness threshold.  disks stays 0: Pack_Disk(4) uses its own
/// count and random spreads over as many disks as Pack_Disks would (§5.1:
/// "the same number of disks").
inline sys::ScenarioSpec nersc_scenario(const workload::NerscSpec& trace_spec,
                                        NerscConfig config,
                                        double threshold_s,
                                        std::uint64_t seed) {
  sys::ScenarioSpec s;
  s.label = to_string(config);
  s.catalog = sys::CatalogSpec::nersc_synth(trace_spec);
  s.load_fraction = 0.8;
  switch (config) {
    case NerscConfig::kPack:
      s.placement = sys::PlacementSpec::pack();
      break;
    case NerscConfig::kPack4:
    case NerscConfig::kPack4Lru:
      s.placement = sys::PlacementSpec::grouped(4);
      break;
    case NerscConfig::kRandom:
    case NerscConfig::kRandomLru:
      s.placement = sys::PlacementSpec::random();
      break;
  }
  if (config == NerscConfig::kRandomLru || config == NerscConfig::kPack4Lru) {
    s.cache = sys::CacheSpec::lru(util::gb(16.0)); // §5.1's cache
  }
  s.policy = sys::PolicySpec::fixed(threshold_s);
  s.workload = sys::WorkloadSpec::replay_catalog();
  s.seed = seed;
  return s;
}

} // namespace spindown::bench
