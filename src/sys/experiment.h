// experiment.h — declarative experiment configuration + one-call runner.
//
// Every bench and example builds ExperimentConfig values (catalog, mapping,
// policy, cache, workload) and calls run_experiment(); sweep.h runs batches
// of them in parallel.  This is the public "run the paper's simulation"
// entry point.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sys/system.h"
#include "workload/arrival.h"
#include "workload/stream.h"
#include "workload/trace.h"

namespace spindown::obs {
struct RunTrace;
}

namespace spindown::sys {

struct FleetPerf;

/// What drives the arrivals.  Synthetic kinds pair an ArrivalProcess
/// (workload/arrival.h) with Zipf file choice over [0, horizon); kTrace
/// replays a trace verbatim.  The non-stationary kinds (kNhpp diurnal
/// cycles, kMmpp bursts) exist to stress the adaptive spin-down policies:
/// under them the best threshold moves hour to hour, which a static sweep
/// cannot follow.
struct WorkloadSpec {
  enum class Kind { kPoisson, kTrace, kNhpp, kMmpp, kReplay };
  Kind kind = Kind::kPoisson;
  // Poisson (Table 1): rate R over [0, horizon).
  double rate = 6.0;
  double horizon_s = 4000.0;
  // kNhpp: piecewise-constant rate segments; period_s > 0 wraps them.
  std::vector<workload::RateSegment> segments;
  double period_s = 0.0;
  // kMmpp: 2-state burst model.
  workload::MmppParams mmpp_params;
  // Trace replay (§5.1): not owned.  When the spec was parsed from
  // "trace:<path>" this points into `owned_trace` and `trace_path` names
  // the CSV stem, so spec() stays parseable.
  const workload::Trace* trace = nullptr;
  std::shared_ptr<const workload::Trace> owned_trace;
  std::string trace_path;

  static WorkloadSpec poisson(double rate, double horizon_s) {
    WorkloadSpec w;
    w.kind = Kind::kPoisson;
    w.rate = rate;
    w.horizon_s = horizon_s;
    return w;
  }
  static WorkloadSpec replay(const workload::Trace& trace) {
    WorkloadSpec w;
    w.kind = Kind::kTrace;
    w.trace = &trace;
    return w;
  }
  /// Load the trace saved at `stem` (Trace::save's two-CSV format) and own
  /// it: the parseable, value-semantic form of replay().
  static WorkloadSpec trace_file(const std::string& stem);
  /// Replay whatever trace the enclosing ScenarioSpec's catalog carries
  /// (nersc or trace catalogs).  Only runnable after scenario resolution;
  /// make_stream()/measurement_horizon() throw on an unresolved replay.
  static WorkloadSpec replay_catalog() {
    WorkloadSpec w;
    w.kind = Kind::kReplay;
    return w;
  }
  static WorkloadSpec nhpp(std::vector<workload::RateSegment> segments,
                           double horizon_s, double period_s = 0.0) {
    WorkloadSpec w;
    w.kind = Kind::kNhpp;
    w.segments = std::move(segments);
    w.horizon_s = horizon_s;
    w.period_s = period_s;
    return w;
  }
  static WorkloadSpec mmpp(workload::MmppParams params, double horizon_s) {
    WorkloadSpec w;
    w.kind = Kind::kMmpp;
    w.mmpp_params = params;
    w.horizon_s = horizon_s;
    return w;
  }

  /// Build the request stream this spec describes.  `seed` drives the
  /// synthetic generators (kPoisson consumes the Rng draw-for-draw like the
  /// seed simulator, so the default path stays bit-exact).
  std::unique_ptr<workload::RequestStream> make_stream(
      const workload::FileCatalog& catalog, std::uint64_t seed) const;

  /// The energy-measurement window this spec implies: `horizon_s` for the
  /// synthetic kinds, trace duration + 1 s for replays (so the request at
  /// the trace end lands inside the window).
  double measurement_horizon() const;

  /// Mean arrival rate this spec implies — the R that normalize()'s load
  /// model needs when a placement is derived from the workload: the Poisson
  /// rate, the time-average of NHPP segments over the horizon (one period
  /// when periodic), the MMPP stationary mean, or requests/duration for a
  /// trace.  Throws on an unresolved kReplay.
  double mean_rate() const;

  /// Parse a CLI/report key; accepts everything spec() emits except the
  /// bare "trace" (an injected trace object cannot be named by a string —
  /// save it and use "trace:<stem>").  Throws std::invalid_argument on
  /// anything else.
  static WorkloadSpec parse(const std::string& name);
  /// Canonical parseable key — "poisson(6,4000)",
  /// "nhpp(0:8;1200:0.05,8000,2000)" (segments start:rate, horizon,
  /// optional period), "mmpp(8,0.5,120,480,8000)" (rate0, rate1, dwell0,
  /// dwell1, horizon), "trace:<stem>" (owned trace loaded from CSV) or
  /// "replay" (the scenario catalog's trace) — such that parse(spec())
  /// round-trips.  Only a replay() of an in-memory trace still renders as
  /// the unparseable "trace".
  std::string spec() const;
};

/// Front-cache selection (§5.1 uses a 16 GB LRU).
struct CacheSpec {
  enum class Kind { kNone, kLru, kFifo, kLfu };
  Kind kind = Kind::kNone;
  util::Bytes capacity = util::gb(16.0);

  static CacheSpec none() { return {}; }
  static CacheSpec lru(util::Bytes cap = util::gb(16.0)) {
    return CacheSpec{Kind::kLru, cap};
  }
  static CacheSpec fifo(util::Bytes cap = util::gb(16.0)) {
    return CacheSpec{Kind::kFifo, cap};
  }
  static CacheSpec lfu(util::Bytes cap = util::gb(16.0)) {
    return CacheSpec{Kind::kLfu, cap};
  }

  /// Parse a CLI/report key; accepts everything spec() emits plus bare
  /// policy names ("lru" = 16 GB default) and any util::parse_bytes
  /// capacity suffix ("lru:0.5gb").  Throws std::invalid_argument on
  /// anything else.
  static CacheSpec parse(const std::string& name);
  /// Canonical parseable key — "none", "lru:16g", "fifo:4g", "lfu:16g" —
  /// such that parse(spec()) round-trips the value.
  std::string spec() const;

  /// nullptr for kNone.
  std::unique_ptr<cache::FileCache> make() const;
};

/// Observability selection (src/obs/): which trace-event families a run
/// records, plus the sim-time metrics sampling interval.  Everything is off
/// by default; an enabled spec only takes effect when the run is handed a
/// RunTrace sink (run_experiment's trace overload), so carrying an enabled
/// ObsSpec through an untraced run is free.
struct ObsSpec {
  bool spans = false;   ///< request lifecycle edges
  bool power = false;   ///< power-state transitions
  bool policy = false;  ///< spin-down policy decisions
  bool metrics = false; ///< sampled queue/state gauges
  bool profile = false; ///< wall-clock fleet pipeline stage timers
  double metrics_interval_s = 60.0; ///< sampling period (sim seconds)

  bool enabled() const {
    return spans || power || policy || metrics || profile;
  }
  /// Bitmask over obs::Kind for obs::TraceBuffer (kind_bit order).
  std::uint32_t kind_mask() const;

  static ObsSpec off() { return {}; }
  static ObsSpec all() {
    ObsSpec o;
    o.spans = o.power = o.policy = o.metrics = o.profile = true;
    return o;
  }

  /// Parse a CLI/report key; accepts everything spec() emits plus "all".
  /// Grammar: "off", or '+'-joined kinds from
  /// {spans,power,policy,metrics[:interval],profile} in any order.  Throws
  /// std::invalid_argument on anything else.
  static ObsSpec parse(const std::string& name);
  /// Canonical parseable key — "off", "spans+power",
  /// "metrics:30+profile", ... (kinds in declaration order, the metrics
  /// interval attached only when it differs from the 60 s default) — such
  /// that parse(spec()) round-trips the value.
  std::string spec() const;

  friend bool operator==(const ObsSpec&, const ObsSpec&) = default;
};

/// Fleet power-orchestration selection (src/orch/): coordinated spin-state
/// management *across* disks, layered over the per-disk policies.  Two
/// mechanisms compose behind one orch::FleetController:
///
///   * redirect — replica-aware read redirection: with `replicas=k` on the
///     scenario, each read is routed to whichever replica the controller
///     predicts is spun up (deterministic tie-break by disk id), so cold
///     replicas can stay asleep;
///   * offload — write off-loading with deferred destage: a small tier of
///     always-on log disks absorbs writes aimed at sleeping data disks
///     (core::WritePlacer, spinning-aware best-fit) and destages them in a
///     batch when the target next serves a foreground read or when the
///     destage deadline expires.
///
/// Orchestration is a deterministic function of the routed arrival stream,
/// so every result stays bit-identical at any shard count.
struct OrchSpec {
  bool redirect = false; ///< replica-aware read redirection
  bool offload = false;  ///< write off-loading onto log disks
  /// Fixed and unread: exist only because perfbench/bench.cpp reads them.
  static constexpr bool budget = false;
  static constexpr double slo_p99_s = 5.0;
  /// kOffload: size of the always-on log-disk tier appended after the data
  /// disks, and the latest a buffered write may wait before being destaged
  /// to its home disk.
  std::uint32_t log_disks = 1;
  double destage_deadline_s = 600.0;
  /// Fraction of requests classified as writes (deterministic hash of the
  /// request id, so arrival streams are unchanged).  Only meaningful with
  /// offload, so parse() rejects it without.
  double write_fraction = 0.2;

  bool enabled() const { return redirect || offload; }

  static OrchSpec off() { return {}; }

  /// Parse a CLI/report key; accepts everything spec() emits.  Grammar:
  /// "off", or '+'-joined mechanisms from {redirect,
  /// offload[:log_disks[:deadline_s]], writes:<fraction>} in any order
  /// (writes: only together with offload).  Throws std::invalid_argument
  /// on anything else.
  static OrchSpec parse(const std::string& name);
  /// Canonical parseable key — "off", "redirect",
  /// "redirect+offload:2+writes:0.5", ... (mechanisms in declaration
  /// order, knobs attached only when they differ from the defaults) — such
  /// that parse(spec()) round-trips the value.
  std::string spec() const;

  friend bool operator==(const OrchSpec&, const OrchSpec&) = default;
};

struct ExperimentConfig {
  std::string label;
  const workload::FileCatalog* catalog = nullptr; ///< not owned
  std::vector<std::uint32_t> mapping;             ///< file id -> disk
  std::uint32_t num_disks = 0;
  disk::DiskParams params = disk::DiskParams::st3500630as();
  PolicySpec policy = PolicySpec::break_even();
  /// Service discipline per disk (default FCFS = the seed behavior); the
  /// scheduler × spin-policy grid is bench/ablation_schedulers.cpp.
  SchedulerSpec scheduler = SchedulerSpec::fcfs();
  /// Per-disk exceptions to `policy` (e.g. MAID's always-on cache disks).
  std::vector<std::pair<std::uint32_t, PolicySpec>> policy_overrides;
  CacheSpec cache = CacheSpec::none();
  WorkloadSpec workload;
  std::uint64_t seed = 1;
  /// Shard the run's event calendar across this many per-disk-group
  /// sub-simulations (sys/fleet.h).  1 = one calendar driven by one worker
  /// thread; 0 = auto (one shard per hardware thread, clamped so every
  /// shard owns at least fleet.h's kAutoMinDisksPerShard disks).
  /// Sharding changes wall-clock only: every physical result field is
  /// bit-identical at any shard count.
  std::uint32_t shards = 1;
  /// k-way replication degree from the placement (`replicas=` scenario
  /// key).  Replica r of file f lives at (mapping[f] + r * stride) % D
  /// with stride = max(1, D / k) over the D data disks; `mapping` above
  /// stores replica 0 (the primary).  1 = no replication.
  std::uint32_t replicas = 1;
  /// Fleet orchestration (`orch=` scenario key).  When enabled(),
  /// num_disks includes orch.log_disks always-on log disks appended after
  /// the data disks.
  OrchSpec orch;
  /// Which trace-event families to record when the run is handed a
  /// RunTrace sink.  Ignored (zero-cost) without one.
  ObsSpec obs;
};

/// Run one experiment to completion on the fleet engine (sys/fleet.h) at
/// `config.shards` shards.  Deterministic given the config.  Throws
/// std::invalid_argument on config errors, including a workload whose
/// measurement horizon is not positive.
RunResult run_experiment(const ExperimentConfig& config);

/// As above, also collecting observability output.  When `trace` is
/// non-null and config.obs enables any kind, the canonical sim-time event
/// stream (bit-identical at any shard count) and — with obs profile on —
/// the wall-clock pipeline samples are appended to it.  When `perf`
/// is non-null it receives the fleet pipeline diagnostics.  The RunResult
/// is bit-identical to the untraced overload's.
RunResult run_experiment(const ExperimentConfig& config, obs::RunTrace* trace,
                         FleetPerf* perf = nullptr);

} // namespace spindown::sys
