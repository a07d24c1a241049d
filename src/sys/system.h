// system.h — the declarative farm specs and the result of one run.
//
// PolicySpec and SchedulerSpec select the per-disk spin-down policy and
// I/O discipline; RunResult carries the power and response-time results of
// a run (sys/fleet.h produces them).  The simulated system matches the
// paper's §4 environment: workload generator -> file router (plus optional
// cache) -> disks.
//
// Energy accounting: all disks are snapshotted at the *measurement horizon*
// (the stream's end time), so energy is integrated over an identical window
// for every configuration; requests still in flight at the horizon run to
// completion and their response times are recorded.
#pragma once

#include <memory>
#include <vector>

#include "adapt/idle_predictor.h"
#include "adapt/share.h"
#include "adapt/slack.h"
#include "cache/cache.h"
#include "disk/disk.h"
#include "disk/spin_policy.h"
#include "stats/summary.h"
#include "util/units.h"

namespace spindown::sys {

/// I/O discipline selection for a whole farm: the grammar of
/// disk::Discipline plus the batch parameters.  Declarative like PolicySpec
/// so experiment grids can sweep the discipline axis; the default (FCFS) is
/// bit-compatible with the seed simulator.
struct SchedulerSpec {
  using Kind = disk::Discipline;
  Kind kind = Kind::kFcfs;
  std::uint32_t max_batch = 16;             ///< kBatch: jobs per positioning
  std::uint64_t coalesce_gap_blocks = 2048; ///< kBatch: max forward gap (1 MiB)

  static SchedulerSpec fcfs() { return {}; }
  static SchedulerSpec sstf() { return SchedulerSpec{Kind::kSstf, 0, 0}; }
  static SchedulerSpec scan() { return SchedulerSpec{Kind::kScan, 0, 0}; }
  static SchedulerSpec clook() { return SchedulerSpec{Kind::kClook, 0, 0}; }
  /// A batch of at most one job never coalesces: max_batch <= 1 is clook().
  static SchedulerSpec batch(std::uint32_t max_batch = 16,
                             std::uint64_t gap_blocks = 2048) {
    if (max_batch <= 1) return clook();
    return SchedulerSpec{Kind::kBatch, max_batch, gap_blocks};
  }
  /// Parse a CLI name ("fcfs", "sstf", "scan", "clook", "batch", "batchN",
  /// "batchNxG" with G the coalesce gap in blocks; "batch1[xG]" is
  /// "clook"); throws std::invalid_argument on anything else.
  static SchedulerSpec parse(const std::string& name);

  /// Canonical parseable key — "fcfs", "sstf", "scan", "clook", "batch16",
  /// "batch16x4096" when the gap differs from the default — such that
  /// parse(spec()) round-trips the value.
  std::string spec() const;

  /// An empty queue of this discipline, for a disk's constructor.
  disk::IoQueue queue() const {
    return disk::IoQueue{kind, max_batch, coalesce_gap_blocks};
  }
};

/// Spin-down policy selection for a whole farm.  The static kinds are the
/// paper's (plus the competitive-analysis baselines); the adaptive kinds
/// (src/adapt/) are instantiated per disk, so every spindle learns from its
/// own idle/response history.
struct PolicySpec {
  enum class Kind {
    kBreakEven,
    kFixed,
    kNever,
    kRandomized,
    kEwma,  ///< EWMA idle-time predictor (adapt/idle_predictor.h)
    kShare, ///< fixed-share expert combiner (adapt/share.h)
    kSlack, ///< slack-aware SLO controller (adapt/slack.h)
  };
  Kind kind = Kind::kBreakEven;
  double fixed_threshold_s = 0.0; ///< kFixed
  /// kEwma: EWMA gain
  double ewma_alpha = adapt::EwmaIdlePredictorPolicy::default_alpha;
  /// kShare: threshold-grid size
  std::uint32_t share_experts = adapt::ShareThresholdPolicy::default_experts;
  /// kSlack: p99 response SLO (seconds)
  double slack_target_s = adapt::SlackAwarePolicy::default_target_response_s;

  static PolicySpec break_even() { return {}; }
  static PolicySpec fixed(double threshold_s) {
    return PolicySpec{Kind::kFixed, threshold_s};
  }
  static PolicySpec never() { return PolicySpec{Kind::kNever, 0.0}; }
  static PolicySpec randomized() { return PolicySpec{Kind::kRandomized, 0.0}; }
  static PolicySpec ewma(
      double alpha = adapt::EwmaIdlePredictorPolicy::default_alpha) {
    PolicySpec p;
    p.kind = Kind::kEwma;
    p.ewma_alpha = alpha;
    return p;
  }
  static PolicySpec share(
      std::uint32_t experts = adapt::ShareThresholdPolicy::default_experts) {
    PolicySpec p;
    p.kind = Kind::kShare;
    p.share_experts = experts;
    return p;
  }
  static PolicySpec slack(
      double target_response_s =
          adapt::SlackAwarePolicy::default_target_response_s) {
    PolicySpec p;
    p.kind = Kind::kSlack;
    p.slack_target_s = target_response_s;
    return p;
  }

  /// Parse a CLI/report key; accepts everything spec() emits plus the bare
  /// adaptive names ("ewma", "share", "slack") with default knobs.  Throws
  /// std::invalid_argument on anything else, including knobs the policy
  /// constructors reject (fixed < 0, ewma outside (0, 1], slack <= 0).
  static PolicySpec parse(const std::string& name);
  /// Canonical parseable key — "break-even", "never", "randomized",
  /// "fixed:10", "ewma:0.25", "share:12", "slack:60" — such that
  /// parse(spec()) round-trips the value.
  std::string spec() const;

  std::unique_ptr<disk::SpinDownPolicy> make(const disk::DiskParams& p) const;
};

/// Power-side results over the measurement window.
struct PowerReport {
  double horizon_s = 0.0;       ///< measurement window length
  util::Joules energy = 0.0;    ///< integrated over [0, horizon]
  util::Watts average_power = 0.0;
  util::Joules always_on_energy = 0.0; ///< same workload, no power mgmt
  double saving_vs_always_on = 0.0;    ///< 1 - energy/always_on_energy
  std::uint64_t spin_ups = 0;
  std::uint64_t spin_downs = 0;
  std::array<double, disk::kPowerStateCount> state_time{}; ///< farm totals
};

struct RunResult {
  PowerReport power;
  stats::ResponseSummary response;
  /// Response moments of the cache-hit stream alone (zero when no cache).
  /// Kept separate from `response` because the canonical aggregation —
  /// shared by the fleet shards and merge() — rebuilds `response` as
  /// fold(hits, per-disk moments in disk-id order), which is what makes the
  /// result independent of shard count.
  stats::Welford hits_response;
  cache::CacheStats cache;     ///< zeros when no cache configured
  std::uint64_t requests = 0;
  /// Discrete disk events resolved (Disk::events(), summed over disks):
  /// one per completed transfer, one per spin-up end, one per spin-down
  /// that ends with requests waiting.  The numerator of the events/s
  /// throughput figure; an engine statistic, not a physical result.
  std::uint64_t events = 0;
  std::vector<disk::DiskMetrics> per_disk; ///< at the horizon, disk-id order
  /// Horizon accounting (from the same snapshot as per_disk/energy, so every
  /// dispatched request is counted exactly once at the horizon).  When the
  /// stream's arrivals all land inside [0, horizon) — true for every
  /// built-in workload: Poisson generates up to the horizon exclusive and
  /// trace replays measure over duration + 1 s — the identity
  ///   requests == completed_at_horizon + in_flight_at_horizon + cache.hits
  /// holds exactly.  (`requests` and `cache` are whole-run totals; a custom
  /// stream emitting arrivals past the horizon would inflate them relative
  /// to the two snapshot fields.)  `response` always covers all requests —
  /// in-flight services run to completion after the horizon and record
  /// their response times.
  std::uint64_t completed_at_horizon = 0; ///< sum of per-disk served
  /// Sum of per-disk queued + in_service at the horizon.
  std::uint64_t in_flight_at_horizon = 0;

  /// Combine the result of a disjoint disk-group sub-simulation of the same
  /// scenario window into this one.  Requires equal horizons and disjoint
  /// per_disk disk ids (throws std::invalid_argument otherwise).  Every
  /// per-disk-derived aggregate — power totals, horizon accounting, and the
  /// response summary — is *recomputed* from the merged per_disk vector in
  /// disk-id order rather than combined from the operands' aggregates, so
  /// merge is associative and order-independent bit-for-bit by
  /// construction, and a fold over any shard partition gives the same
  /// result.  Caveat: `hits_response` is combined with
  /// Chan's formula, so bitwise reproducibility requires that at most one
  /// operand in a merge tree carries cache hits (true for fleet partials:
  /// the router-side partial owns all hits).
  RunResult& merge(const RunResult& other);

  /// Recompute the per-disk-derived aggregates of this result — power
  /// totals, completed/in-flight accounting, and response =
  /// fold(hits_response, per_disk[i].response in disk-id order) over
  /// `hist` — the canonical finalize shared by every fleet shard and
  /// merge().  per_disk must be sorted by disk_id and
  /// power.horizon_s set.
  void recompute_from_per_disk(const stats::LinearHistogram& hist);
};

/// Check a run's two conservation identities: power.energy equals the sum
/// over disks and power states of state_time x the state's power under
/// `params` (to 1e-9 relative), and
///   requests == completed_at_horizon + in_flight_at_horizon + cache.hits.
/// Throws std::logic_error naming the broken identity and both sides.
/// run_experiment runs it on every result in builds with assertions on
/// (!NDEBUG): a transition the disks failed to apply breaks one of them.
void check_conservation(const RunResult& r, const disk::DiskParams& params);

} // namespace spindown::sys
