// scenario.h — the whole experiment as a value.
//
// A ScenarioSpec names every axis of the paper's scenario space — catalog ×
// placement × spin-down policy × scheduler × cache × workload × seed — as
// one canonical, parseable string, so any figure point, ablation cell, or
// future sweep is reproducible from a single line:
//
//   catalog=table1(40000) placement=pack load=0.8 disks=100
//   policy=break-even sched=fcfs cache=none workload=poisson(6,4000) seed=1
//
// parse(spec()) round-trips at the top level and for every component key.
// The resolution layer (ScenarioCache / resolve_scenario) turns a spec into
// the ExperimentConfig that run_experiment consumes — owning the catalog,
// trace, and mapping that ExperimentConfig only points at — and memoizes
// catalog generation and placement across a sweep so grids don't re-pack
// per point.  examples/spindown_run.cpp is the universal CLI over this API.
#pragma once

#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "sys/experiment.h"
#include "workload/catalog.h"
#include "workload/nersc.h"

namespace spindown::sys {

/// Where the file population comes from.  Synthetic catalogs are generated
/// (Table 1 or fully parameterized), NERSC catalogs are synthesized *with*
/// their 30-day request trace (§5.1), and trace catalogs are loaded from a
/// Trace::save() CSV stem (catalog + records).  The latter two also provide
/// the trace that a "replay" workload runs.
struct CatalogSpec {
  enum class Kind { kSynthetic, kNersc, kTrace };
  Kind kind = Kind::kSynthetic;
  // kSynthetic: generator parameters + the generator's own seed (kept
  // separate from the run seed so e.g. golden configs can pin the layout
  // while sweeping the arrival randomness).  generate_catalog draws random
  // numbers only for the independent size correlation, so the seed is part
  // of the canonical name only there.
  workload::SyntheticSpec synth = workload::SyntheticSpec::paper_table1();
  std::uint64_t seed = 1;
  // kNersc: the synthesizer's spec.  The grammar names n_files,
  // n_requests, seed, duration_s, batch_fraction, batch_min and batch_max;
  // resolution rejects a spec that sets any other field.
  workload::NerscSpec nersc;
  // kTrace: CSV stem for Trace::load (no whitespace; the scenario grammar
  // is whitespace-separated).
  std::string path;

  /// Table 1's catalog, optionally scaled down.
  static CatalogSpec table1(std::size_t n_files = 40'000);
  static CatalogSpec synthetic(const workload::SyntheticSpec& synth,
                               std::uint64_t seed = 1);
  static CatalogSpec nersc_synth(const workload::NerscSpec& spec);
  static CatalogSpec trace(std::string path);

  /// Parse a catalog key; accepts everything spec() emits.  Grammar:
  ///   table1(n)                           — Table 1, n files
  ///   synth(n,zipf,maxsize,corr[,seed])   — corr: inverse|independent|direct,
  ///                                         zipf 0 = the paper's 1-theta,
  ///                                         maxsize with util::parse_bytes
  ///                                         suffix ("20g"); the seed only
  ///                                         shuffles independent sizes
  ///   nersc(files,requests,seed[,dur_s[,bfrac[,bmin[,bmax]]]])
  ///   trace:<stem>                        — Trace::save CSV stem
  /// table1(n,seed) still parses; its seed changes nothing.  Throws
  /// std::invalid_argument on anything else.
  static CatalogSpec parse(const std::string& name);
  /// Canonical parseable key such that parse(spec()) round-trips; emits the
  /// table1(n) shorthand when only n_files differs from Table 1, and the
  /// seed only for the independent correlation.
  std::string spec() const;
};

/// How files land on disks: one declarative front over the src/core
/// allocators (plus MAID's replication scheme).  The load model feeding
/// normalize() comes from the enclosing scenario: R is the workload's mean
/// rate, L the scenario's `load=` key.
struct PlacementSpec {
  enum class Kind { kPack, kGrouped, kRandom, kMaid, kSea, kSegregated, kFfd };
  Kind kind = Kind::kPack;
  std::uint32_t group_size = 4;   ///< kGrouped: Pack_Disks_v's v
  std::uint32_t cache_disks = 4;  ///< kMaid: always-on cache disks
  double hot_load_share = 0.8;    ///< kSea: load carried by the hot zone
  std::uint32_t size_classes = 2; ///< kSegregated: size classes
  /// k-way replication over the base placement (`replicas=` scenario key,
  /// orthogonal to the placement kind): replica r of file f lives at
  /// (mapping[f] + r * stride) % D, stride = max(1, D / k).  Only
  /// orchestration redirect reads the copies, so resolution rejects
  /// replicas > 1 without `orch=redirect` (and redirect at replicas=1).
  std::uint32_t replicas = 1;

  static PlacementSpec pack() { return {}; }
  /// Pack_Disks_v; v = 1 is Pack_Disks by construction, so it is pack().
  static PlacementSpec grouped(std::uint32_t v) {
    if (v == 1) return pack();
    PlacementSpec p;
    p.kind = Kind::kGrouped;
    p.group_size = v;
    return p;
  }
  static PlacementSpec random() {
    PlacementSpec p;
    p.kind = Kind::kRandom;
    return p;
  }
  static PlacementSpec maid(std::uint32_t cache_disks = 4) {
    PlacementSpec p;
    p.kind = Kind::kMaid;
    p.cache_disks = cache_disks;
    return p;
  }
  static PlacementSpec sea(double hot_load_share = 0.8) {
    PlacementSpec p;
    p.kind = Kind::kSea;
    p.hot_load_share = hot_load_share;
    return p;
  }
  /// One size class is Pack_Disks by construction, so it is pack().
  static PlacementSpec segregated(std::uint32_t classes = 2) {
    if (classes == 1) return pack();
    PlacementSpec p;
    p.kind = Kind::kSegregated;
    p.size_classes = classes;
    return p;
  }
  static PlacementSpec ffd() {
    PlacementSpec p;
    p.kind = Kind::kFfd;
    return p;
  }

  /// Parse a placement key — "pack", "grouped:4", "random", "maid:4",
  /// "sea:0.8", "seg:2", "ffd" (bare "grouped"/"maid"/"sea"/"seg" take the
  /// defaults above; "grouped:1" and "seg:1" are "pack").  `replicas` is
  /// not part of this key; it has its own top-level `replicas=` scenario
  /// key.  Throws std::invalid_argument on anything else.
  static PlacementSpec parse(const std::string& name);
  /// Canonical parseable key such that parse(spec()) round-trips.
  std::string spec() const;
};

/// The disk model (`device=` key): one of the DiskParams presets, so every
/// value has a name.  Every experiment in the paper uses the ST3500630AS.
struct DeviceSpec {
  enum class Kind { kSt3500630as, kLaptop25in };
  Kind kind = Kind::kSt3500630as;

  /// "st3500630as" or "laptop_2_5in"; throws std::invalid_argument on
  /// anything else.  parse(spec()) round-trips.
  static DeviceSpec parse(const std::string& name);
  std::string spec() const;
  /// The preset.  Implicit, so a scenario's `params` reads as a DiskParams.
  operator disk::DiskParams() const;

  friend bool operator==(DeviceSpec, DeviceSpec) = default;
};

/// The complete experiment as a value.  Everything run_experiment needs is
/// derivable from this spec alone; see the file comment for the grammar.
struct ScenarioSpec {
  std::string label; ///< optional display name (no whitespace to round-trip)
  CatalogSpec catalog;
  PlacementSpec placement;
  /// L of the §3 load model: fraction of a disk's max service rate the
  /// packing may load onto it.  Random placement ignores it when `disks`
  /// pins the farm (the paper's lenient baseline).
  double load_fraction = 0.8;
  /// Farm-size floor.  0 lets the allocator decide; random placement with
  /// disks=0 spreads over as many disks as Pack_Disks would use (§5.1's
  /// convention); MAID requires an explicit farm (cache + data disks).
  /// parse() rejects values above 1 000 000.
  std::uint32_t disks = 0;
  /// `device=st3500630as|laptop_2_5in`: the disk model.  spec() omits the
  /// key at the paper's ST3500630AS.
  DeviceSpec params;
  PolicySpec policy = PolicySpec::break_even();
  SchedulerSpec scheduler = SchedulerSpec::fcfs();
  CacheSpec cache = CacheSpec::none();
  WorkloadSpec workload;
  std::uint64_t seed = 1;
  /// `shards=<n|auto>`: split the run across n per-disk-group
  /// sub-simulations (sys/fleet.h); 1 (the default) is one disk group on
  /// one worker thread and 0 renders as "auto" (one shard per hardware thread,
  /// clamped so every shard owns at least fleet.h's kAutoMinDisksPerShard
  /// disks — oversharding a small farm costs more than it buys).  Shard
  /// count changes wall-clock only, never results, so it is deliberately
  /// NOT part of the result-determining scenario identity: spec() omits
  /// the key at its default.
  std::uint32_t shards = 1;
  /// `obs=<spec>`: which observability event families a traced run records
  /// (ObsSpec grammar: "off", "all", or '+'-joined
  /// spans|power|policy|metrics[:interval]|profile).  Like shards, tracing
  /// never changes results — the canonical sim-time event stream is
  /// bit-identical at any shard count and the RunResult matches the
  /// untraced run — so spec() omits the key at its default ("off").
  ObsSpec obs;
  /// `orch=<spec>`: fleet power orchestration (OrchSpec grammar: "off" or
  /// '+'-joined redirect|offload[:L[:deadline]]|writes:<frac>).
  /// Enabling any mechanism forces the fleet router path; results stay
  /// bit-identical at any shard count.  spec() omits the key at its
  /// default ("off").
  OrchSpec orch;

  /// Parse a whitespace-separated `key=value` list.  Keys: label, catalog,
  /// placement, replicas, load, disks, device, policy, sched, cache,
  /// workload, seed, shards, obs, orch; missing keys keep their defaults,
  /// unknown keys throw std::invalid_argument, later duplicates win.
  static ScenarioSpec parse(const std::string& text);
  /// Canonical fully-explicit key=value string such that
  /// parse(spec()) == *this.
  std::string spec() const;
  /// Copy with one key reassigned through the parser — the primitive
  /// spindown_run's --sweep uses to cross grids.
  ScenarioSpec with(const std::string& key, const std::string& value) const;

  /// Canonical-name equality: two scenarios are equal iff their canonical
  /// strings are.  Inputs the string cannot name (a NerscSpec field outside
  /// nersc(...), a workload's trace pointer) do not participate;
  /// ScenarioCache::resolve rejects them.
  friend bool operator==(const ScenarioSpec& a, const ScenarioSpec& b) {
    return a.spec() == b.spec();
  }
  friend bool operator!=(const ScenarioSpec& a, const ScenarioSpec& b) {
    return !(a == b);
  }
};

/// A spec made runnable: the ExperimentConfig plus ownership of everything
/// it points at.  Copyable; copies share the immutable catalog/trace/
/// mapping.
struct ResolvedScenario {
  std::shared_ptr<const workload::FileCatalog> catalog;
  /// Non-null when the catalog source carries records (nersc/trace).
  std::shared_ptr<const workload::Trace> trace;
  ExperimentConfig config;
};

/// Resolves specs into configs, memoizing catalog synthesis and placement
/// so a sweep over (policy × threshold × ...) builds each catalog and each
/// mapping once.  Not thread-safe: resolve on one thread (cheap next to the
/// simulations), then run the configs in parallel with run_sweep.
class ScenarioCache {
public:
  /// Throws std::invalid_argument on a spec that parses but cannot run:
  /// replicas > 1 without orch=redirect or redirect at replicas=1 (the
  /// copies would change nothing), a replay workload over a catalog
  /// without a trace, a MAID farm no larger than its cache.  Also throws,
  /// naming the field, on an input the canonical string cannot name: a
  /// `catalog.nersc` field outside nersc(...) or a `workload.trace` set by
  /// hand.  So a resolved scenario is exactly its string, and the memo
  /// keys are canonical strings.  Throws, naming the interval, the horizon
  /// and the tick count, when `obs=metrics:<iv>` would sample more than
  /// 10^6 ticks over the measurement horizon.
  ResolvedScenario resolve(const ScenarioSpec& spec);

private:
  struct CatalogEntry {
    std::shared_ptr<const workload::FileCatalog> catalog;
    std::shared_ptr<const workload::Trace> trace;
  };
  struct MappingEntry {
    std::shared_ptr<const std::vector<std::uint32_t>> mapping;
    std::uint32_t alloc_disks = 0; ///< allocator-determined count
    std::vector<std::pair<std::uint32_t, PolicySpec>> policy_overrides;
  };
  const CatalogEntry& catalog_for(const ScenarioSpec& spec);
  const MappingEntry& mapping_for(const ScenarioSpec& spec,
                                  const CatalogEntry& cat, double rate);

  std::map<std::string, CatalogEntry> catalogs_;
  std::map<std::string, MappingEntry> mappings_;
};

/// One-shot resolution (fresh cache).
ResolvedScenario resolve_scenario(const ScenarioSpec& spec);

/// Resolve and run one scenario.  When `trace` is non-null and spec.obs
/// enables any kind, the canonical trace lands in it; `perf`, when
/// non-null, receives the fleet pipeline diagnostics (as run_experiment).
RunResult run_scenario(const ScenarioSpec& spec,
                       obs::RunTrace* trace = nullptr,
                       FleetPerf* perf = nullptr);

/// Resolve all scenarios through one shared cache, then run them in
/// parallel via run_sweep.  Results land in input order.
std::vector<RunResult> run_scenarios(std::span<const ScenarioSpec> specs,
                                     unsigned max_threads = 0);

/// Machine-readable flat JSON object over a run's headline metrics,
/// including an "idle_periods" summary (count/mean/p50/p99) of the
/// farm-merged per-disk idle-period histogram.
std::string to_json(const RunResult& result);
/// Same, prefixed with the scenario's canonical string (one sweep row).
std::string to_json(const ScenarioSpec& spec, const RunResult& result);
/// Machine-readable JSON object over one fleet run's pipeline diagnostics
/// (sys/fleet.h FleetPerf), with one row per shard.  Wall-clock timings:
/// never deterministic, never part of a result.
std::string to_json(const FleetPerf& perf);

} // namespace spindown::sys
