// fleet.h — the simulator's one engine: a routed, sharded disk farm.
//
// Every scenario runs here (run_experiment merges run_fleet_partials).  A
// run's disks are partitioned into per-disk-group sub-simulations (disk d
// lives in shard d % shards), each driven by its own worker thread.  The
// cut is clean because the system's coupling is one-directional: disks
// interact only through the router at arrival time (the cache and the
// orchestration controller mutate when a request is routed, never when it
// completes), and a completion never feeds back into shared state.  Within
// a shard the disks do not interact at all, so a shard has no event
// calendar: each disk's timeline depends only on its own arrivals, and the
// disk resolves it itself, lazily (disk.h).
//
// Three kinds of thread form a pipeline:
//   * the feeder (its own thread) pulls the arrival stream a chunk of up
//     to 4096 arrivals at a time, looks every arrival up in the catalog
//     and the front cache in global arrival order, and forwards each
//     chunk of cache-filtered arrivals to the router;
//   * the router (the calling thread) hands every cache miss, in the same
//     arrival order, to the orchestration controller (orch/controller.h),
//     the one place a miss's disk and extent are picked (with orchestration
//     off it enables no mechanism and picks the primary copy), turns each
//     chunk into one batch of submissions per shard, and publishes them.
//     Both front stages work a chunk in passes, so the table entries a
//     pass will read are known, and prefetched, 16 records ahead
//     (util/prefetch.h);
//   * one worker per shard replays its batches into its own disks: each
//     record is a Disk::submit at the record's time, preceded by the
//     metrics sampler's ticks up to that time.
// fleet.cpp writes each of these ideas once:
//   * one shard type, `Shard`: a disk group (disks shard, shard + shards,
//     ..., built from per-disk RNGs split in disk-id order), its
//     histogram, sampler and horizon snapshot, the handoff that feeds it,
//     and its worker's outputs;
//   * one handoff type, `Handoff<Record>`, serving both hops
//     (feeder -> router, router -> each shard): a lock-free SPSC ring
//     (util/spsc_ring.h) of filled batches paired with a ring that
//     recycles drained ones back to the producer, so the feeder fills chunk
//     K+1 while the router routes chunk K and workers drain the batches of
//     earlier chunks, and the steady state allocates nothing.  A batch is
//     one vector of fixed 40-byte records, one per request: the consuming
//     core reads one contiguous record per request, not one cache line per
//     field.  An idle stage parks on a futex instead of spinning;
//   * one timing path, `StageClock`, one per stage: it measures each
//     interval once, where the stage blocks or finishes a chunk, and that
//     same double feeds the FleetPerf sums below and, under obs profile,
//     the stage's kProfile sample.
// Because the minimum cross-shard latency is infinite (no feedback path),
// a batch may end anywhere in sim time; the chunk size and the arena rings
// bound router/worker skew and batch memory, never correctness.  shards=1
// is the same pipeline with one worker.
//
// Determinism: results are bit-identical at every shard count, because
//   * each disk's RNG is split from the farm RNG in disk-id order,
//     independent of the shard partition;
//   * the feeder pulls one arrival stream draw-for-draw and makes every
//     cache decision in arrival order, and the router makes every routing
//     decision in that same order, whatever the shard count;
//   * the router track of the trace has exactly one writer, the router:
//     cache hit/miss spans (from the feeder's forwarded verdicts) and the
//     controller's decisions are emitted there in arrival order, each
//     arrival preceded by the deadline destages due by its time, so the
//     track is in time order; the feeder writes only wall-clock profile
//     samples;
//   * a disk's timeline is a function of its own arrivals alone, and
//     submit() first settles the disk to the arrival (disk.h), so every
//     transition at t <= arrival happens before a submission at t — a
//     fixed tie rule that does not depend on how many shards exist; a
//     sampler tick at τ likewise reads each disk after every transition
//     at t <= τ;
//   * aggregation is canonical (RunResult::recompute_from_per_disk):
//     moments fold in disk-id order, histograms merge bin-wise, so neither
//     completion interleaving nor merge order can leak into the result.
//
// `events` (the disks' resolved events, summed over shards: completions,
// spin-up ends, and spin-downs that end with requests waiting) is an
// engine statistic; arrivals and sampler ticks are not events.
#pragma once

#include <cstdint>
#include <vector>

#include "sys/experiment.h"

namespace spindown::sys {

/// Pipeline diagnostics for one fleet run: wall-clock and occupancy
/// counters for the bench/regression tooling.  Never part of RunResult or
/// of any determinism contract — two bit-identical runs report different
/// timings.
struct ShardPerf {
  std::uint32_t shard = 0;
  std::uint64_t submissions = 0; ///< requests replayed into this shard
  std::uint64_t batches = 0;     ///< routed batches consumed
  std::uint64_t events = 0;      ///< disk events resolved by the shard
  /// Max full-ring occupancy a router publish brought the ring to (the
  /// batches the worker had not yet taken, plus the published one):
  /// persistent highs mean workers lag the router, persistent lows mean
  /// the router is the bottleneck.
  std::size_t ring_high_water = 0;
};

struct FleetPerf {
  std::uint32_t shards = 0; ///< one worker thread per shard
  double router_busy_s = 0.0;  ///< router routing + batching time
  /// Router blocked on any ring: waiting for a feeder chunk or for a
  /// drained shard arena.
  double router_stall_s = 0.0;
  double feeder_busy_s = 0.0;  ///< arrival generation + cache time
  double feeder_stall_s = 0.0; ///< feeder waiting for a drained chunk
  std::vector<ShardPerf> per_shard;    ///< indexed by shard
  std::vector<double> worker_busy_s;   ///< indexed by shard
  std::vector<double> worker_wait_s;   ///< blocked on an empty ring
};

/// Resolve a requested shard count: 0 ("auto") becomes
/// hardware_concurrency clamped so every shard owns at least
/// kAutoMinDisksPerShard disks (oversharding a small farm costs more in
/// pipeline overhead than the extra parallelism returns); any explicit
/// request is honored up to [1, num_disks] — a shard owns at least one
/// disk.
std::uint32_t effective_shards(std::uint32_t requested,
                               std::uint32_t num_disks);

/// Floor applied to shards=auto only: auto never creates a shard with
/// fewer than this many disks.  Explicit shard counts may.
inline constexpr std::uint32_t kAutoMinDisksPerShard = 32;

/// Run `config` sharded `shards` ways and return the partial RunResults:
/// element 0 is the router-side partial (request count, cache stats,
/// cache-hit response moments), elements 1..shards are the disk groups
/// (disk d lives in shard d % shards).  Folding the partials with
/// RunResult::merge — in any order — gives the same result at every shard
/// count; run_experiment() does exactly that.  `perf`, when non-null,
/// receives the run's pipeline diagnostics.  `trace`, when non-null and
/// config.obs enables any kind, receives the canonical sim-time event
/// stream (obs::append_canonical order — bit-identical at any shard count)
/// plus, when config.obs.profile is set, wall-clock pipeline stage samples
/// in RunTrace::profile.  Throws std::invalid_argument on config errors,
/// including a non-positive measurement horizon and orch offload on fewer
/// disks than its log disks.
std::vector<RunResult> run_fleet_partials(const ExperimentConfig& config,
                                          std::uint32_t shards,
                                          FleetPerf* perf = nullptr,
                                          obs::RunTrace* trace = nullptr);

} // namespace spindown::sys
