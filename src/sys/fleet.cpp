#include "sys/fleet.h"

#include <algorithm>
#include <exception>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <thread>
#include <utility>

#include "cache/cache.h"
#include "disk/disk.h"
#include "obs/profile.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "orch/controller.h"
#include "stats/summary.h"
#include "util/prefetch.h"
#include "util/rng.h"
#include "util/spsc_ring.h"
#include "util/units.h"
#include "workload/stream.h"

namespace spindown::sys {
namespace {

// FleetPerf pipeline diagnostics and kProfile trace samples only: the
// measured durations are reported to benches/traces and never touch a
// RunResult.  obs/profile.h is the repo's sole wall-clock site.
using PerfClock = obs::ProfileClock;
using obs::seconds_since;

/// Ring capacity and arena count per routed shard: bounds router run-ahead
/// (and batch memory) without stalling workers that lag a chunk or two.
/// Because the router can only hold batches it popped from the free ring,
/// the full ring can never overflow — the free ring is the one
/// backpressure point in the pipeline.
constexpr std::size_t kBatchesPerShard = 16;

/// One routed submission, written by the router and replayed by a worker
/// on another core: one 40-byte record per request, so the handoff moves
/// one cache line's worth of data, not a line per field.  No extent length:
/// every submission moves one whole file, so the disk derives it as
/// util::blocks_of(bytes).
struct ShardRecord {
  double time;
  std::uint64_t request_id;
  util::Bytes bytes;
  std::uint64_t lba;
  std::uint32_t local_disk;
  bool background; ///< orchestration destage I/O
};
static_assert(sizeof(ShardRecord) == 40);

/// Pre-routed submissions for one shard, from one feeder chunk.
/// Instances live in per-shard arenas and are recycled through the free
/// ring — reset() keeps vector capacity, so the steady state allocates
/// nothing.
struct ShardBatch {
  std::vector<ShardRecord> records;
  bool final = false;

  void reset() {
    records.clear();
    final = false;
  }
};

/// Arrivals per feeder chunk and chunks in flight between feeder and
/// router.  Bounds feeder run-ahead and handoff memory (160 KB per chunk);
/// like the shard arenas, the chunks are only ever held by one side, so
/// the free ring is the feeder's one backpressure point.  A chunk is the
/// pipeline's one unit of handoff: the router turns each into one batch
/// per shard.
constexpr std::size_t kChunkEntries = 4096;
constexpr std::size_t kFeedChunks = 8;

/// One arrival as the router consumes it: the request plus the catalog
/// size and front-cache outcome the feeder resolved for it.
struct FeedRecord {
  double arrival;
  std::uint64_t id;
  std::uint64_t lba; ///< explicit address, or workload::kNoLba
  util::Bytes size;
  workload::FileId file;
  bool hit; ///< served from the front cache
};
static_assert(sizeof(FeedRecord) == 40);

/// Up to kChunkEntries cache-filtered arrivals, in arrival order.  The
/// router consumes the records without touching the catalog or the cache.
struct FeedChunk {
  std::vector<FeedRecord> records;
  bool last = false; ///< the stream ends with this chunk

  void reset() {
    records.clear();
    last = false;
  }
};

/// One shard's disk group: the disks with id % shards == shard (local index
/// l holds global disk shard + l * shards), the shard's response histogram,
/// the metrics sampler, and the horizon-snapshot rule — the simulator's one
/// episode.  Disks never interact, so there is no calendar: each disk
/// settles its own timeline (disk.h) when a submission, a sampler tick or
/// the snapshot reaches it, and books its own responses.  Heap-allocated
/// and never moved: every disk holds the address of hist_.
class ShardSim {
public:
  /// `obs_mask` non-zero enables tracing into a shard-private buffer
  /// (single-writer: exactly one thread ever drives this shard).
  ShardSim(const ExperimentConfig& config, double horizon,
           const std::vector<std::uint32_t>& disk_ids,
           const std::vector<util::Rng>& rngs,
           const std::vector<const PolicySpec*>& policies,
           std::uint32_t obs_mask = 0, double metrics_interval_s = 0.0)
      : horizon_(horizon) {
    if (obs_mask != 0) {
      trace_ = std::make_unique<obs::TraceBuffer>(obs_mask);
    }
    disks_.reserve(disk_ids.size());
    for (std::size_t l = 0; l < disk_ids.size(); ++l) {
      disks_.push_back(std::make_unique<disk::Disk>(
          disk_ids[l], config.params, policies[l]->make(config.params),
          rngs[l], config.scheduler.make()));
      if (trace_ != nullptr) disks_.back()->set_trace(trace_.get());
      disks_.back()->set_response_histogram(&hist_);
    }
    if (trace_ != nullptr) {
      sampler_ = std::make_unique<obs::MetricsSampler>(
          metrics_interval_s, horizon, trace_.get());
      for (const auto& d : disks_) sampler_->add_disk(d.get());
    }
  }
  ShardSim(const ShardSim&) = delete;
  ShardSim& operator=(const ShardSim&) = delete;

  /// Replay one routed submission.  Disk::submit settles its disk to the
  /// record's time first, so every transition at t' <= t precedes a
  /// submission at t — a fixed tie rule that does not depend on how many
  /// shards exist.
  void submit(const ShardRecord& r) {
    advance(r.time);
    disks_[r.local_disk]->submit(r.time, r.request_id, r.bytes, r.lba,
                                 r.background);
    ++submissions_;
  }

  std::uint64_t submissions() const { return submissions_; }
  obs::TraceBuffer* trace_buffer() { return trace_.get(); }

  /// Drain: in-flight services run to completion past the horizon and
  /// still record their response times; settling each disk to +infinity
  /// also plays its trailing idle chain out into the trace.
  RunResult finalize() {
    advance(horizon_);
    RunResult partial;
    for (const auto& d : disks_) {
      d->settle_all();
      partial.events += d->events();
    }
    for (std::size_t l = 0; l < snapshot_.size(); ++l) {
      snapshot_[l].response = disks_[l]->response();
    }
    partial.power.horizon_s = horizon_;
    partial.per_disk = std::move(snapshot_);
    partial.recompute_from_per_disk(hist_);
    return partial;
  }

private:
  /// Emit the sampler ticks up to `t`, and take the horizon snapshot (the
  /// power/queue counters, each disk settled to the horizon) before the
  /// shard first moves past the horizon.
  void advance(double t) {
    if (snapshot_.empty() && t >= horizon_) {
      if (sampler_ != nullptr) sampler_->sample_until(horizon_);
      snapshot_.reserve(disks_.size());
      for (const auto& d : disks_) snapshot_.push_back(d->metrics(horizon_));
    }
    if (sampler_ != nullptr) sampler_->sample_until(t);
  }

  std::unique_ptr<obs::TraceBuffer> trace_;
  std::unique_ptr<obs::MetricsSampler> sampler_;
  std::vector<std::unique_ptr<disk::Disk>> disks_;
  stats::LinearHistogram hist_{stats::ResponseSummary::kHistLo,
                               stats::ResponseSummary::kHistHi,
                               stats::ResponseSummary::kHistBins};
  std::vector<disk::DiskMetrics> snapshot_;
  double horizon_ = 0.0;
  std::uint64_t submissions_ = 0;
};

/// Everything the pipeline derives from the config before any thread
/// starts: the shard partition, the per-disk RNGs (split in disk-id order
/// on the calling thread, so each disk's draw stream is a function of
/// (seed, disk id) alone, never of the partition), and the shared
/// read-only layout.
struct FleetSetup {
  std::uint32_t shards = 0;
  double horizon = 0.0;
  std::vector<std::vector<std::uint32_t>> disk_ids;      ///< per shard
  std::vector<std::vector<util::Rng>> rngs;              ///< per shard
  std::vector<std::vector<const PolicySpec*>> policies;  ///< per shard
  std::vector<workload::FileExtent> extents;
  /// The orchestration log tier never sleeps — it absorbs writes precisely
  /// because it is always on (policies[] points here for log disks).
  PolicySpec log_policy = PolicySpec::never();

  FleetSetup(const ExperimentConfig& config, std::uint32_t shards_in)
      : shards(shards_in), disk_ids(shards_in), rngs(shards_in),
        policies(shards_in) {
    horizon = config.workload.measurement_horizon();
    util::Rng farm_rng{config.seed};
    for (std::uint32_t d = 0; d < config.num_disks; ++d) {
      const std::uint32_t w = d % shards;
      disk_ids[w].push_back(d);
      rngs[w].push_back(farm_rng.split());
      const PolicySpec* policy = &config.policy;
      for (const auto& [disk_id, override_policy] : config.policy_overrides) {
        if (disk_id == d) policy = &override_policy; // last override wins
      }
      if (config.orch.offload &&
          d >= config.num_disks - config.orch.log_disks) {
        policy = &log_policy;
      }
      policies[w].push_back(policy);
    }
    extents = workload::layout_extents(*config.catalog, config.mapping,
                                       config.num_disks);
  }

  /// `obs_mask` covers the sim-time kinds only (kProfile samples are
  /// collected by the pipelines themselves, not the shard disk groups).
  std::unique_ptr<ShardSim> make_sim(const ExperimentConfig& config,
                                     std::uint32_t shard,
                                     std::uint32_t obs_mask = 0) const {
    return std::make_unique<ShardSim>(config, horizon, disk_ids[shard],
                                      rngs[shard], policies[shard], obs_mask,
                                      config.obs.metrics_interval_s);
  }
};

// ---------------------------------------------------------------------------
// The pipeline: feeder -> router -> shard workers over lock-free rings,
// each paired with a ring that recycles drained arenas.
// ---------------------------------------------------------------------------

/// Raised inside the router loop when the feeder or a worker closed its
/// rings (that stage's own exception is the root cause and is rethrown
/// after join).
struct PipelineAborted {};

/// One routed shard: a private disk group, the full ring (router -> worker,
/// carries filled batches) and the free ring (worker -> router, recycles
/// drained arenas).  The arenas double-buffer generically: the router
/// fills the batch of chunk K+1 (or several) while the worker drains that
/// of chunk K, and an empty free ring is what parks a router that ran
/// ahead.
struct RoutedShard {
  std::unique_ptr<ShardSim> sim;
  util::SpscRing<ShardBatch*> full{kBatchesPerShard};
  util::SpscRing<ShardBatch*> free_ring{kBatchesPerShard};
  std::vector<std::unique_ptr<ShardBatch>> arenas;
  std::uint32_t shard = 0;
  /// kProfile stage sampling (obs profile), shared run-wide time origin.
  bool profiling = false;
  PerfClock::time_point prof_t0{};
  // Outputs, read after join.
  RunResult partial;
  std::exception_ptr error;
  std::uint64_t batches = 0;
  double busy_s = 0.0;
  double wait_s = 0.0;
  std::vector<obs::TraceEvent> prof; ///< kProfRingWait / kProfWorkerReplay

  void init() {
    arenas.reserve(kBatchesPerShard);
    for (std::size_t i = 0; i < kBatchesPerShard; ++i) {
      arenas.push_back(std::make_unique<ShardBatch>());
      ShardBatch* arena = arenas.back().get();
      free_ring.try_push(arena); // capacity == arena count: cannot fail
    }
  }

  void run() {
    try {
      consume();
    } catch (...) {
      error = std::current_exception();
      full.close();
      free_ring.close(); // unblock the router; it aborts on the next pop
    }
  }

private:
  void consume() {
    const auto t0 = PerfClock::now();
    for (;;) {
      ShardBatch* batch = nullptr;
      const auto w0 = PerfClock::now();
      const double wait0 = profiling ? seconds_since(prof_t0) : 0.0;
      if (!full.pop(batch)) return; // rings closed: router-side abort
      wait_s += seconds_since(w0);
      ++batches;
      if (profiling) {
        prof.push_back(obs::TraceEvent{
            wait0, batches, seconds_since(prof_t0) - wait0, 0.0, shard,
            obs::Kind::kProfile, obs::kProfRingWait});
      }
      const double r0 = profiling ? seconds_since(prof_t0) : 0.0;
      for (const ShardRecord& r : batch->records) sim->submit(r);
      const bool final = batch->final;
      batch->reset();
      free_ring.try_push(batch); // capacity == arena count: cannot fail
      if (profiling) {
        prof.push_back(obs::TraceEvent{
            r0, batches, seconds_since(prof_t0) - r0, 0.0, shard,
            obs::Kind::kProfile, obs::kProfWorkerReplay});
      }
      if (final) break;
    }
    partial = sim->finalize();
    busy_s = seconds_since(t0) - wait_s;
  }
};

/// The pipeline's first stage, on its own thread: pulls the arrival stream,
/// resolves each arrival's catalog entry and front cache outcome in global
/// arrival order (the cache has no other user), and forwards the results
/// to the router in chunks of up to kChunkEntries over `full`; the router
/// returns drained chunks over `free_ring`.
struct Feeder {
  const workload::FileCatalog* catalog = nullptr;
  workload::RequestStream* stream = nullptr;
  cache::FileCache* cache = nullptr; ///< null: no front cache
  util::SpscRing<FeedChunk*> full{kFeedChunks};
  util::SpscRing<FeedChunk*> free_ring{kFeedChunks};
  std::vector<std::unique_ptr<FeedChunk>> arenas;
  /// kProfile stage sampling (obs profile), shared run-wide time origin.
  bool profiling = false;
  PerfClock::time_point prof_t0{};
  // Outputs, read after join.
  std::exception_ptr error;
  double busy_s = 0.0;
  double stall_s = 0.0;
  std::vector<obs::TraceEvent> prof; ///< kProfFeederFill per chunk

  /// Reserves every chunk up front (on the calling thread), so handoff
  /// memory is kFeedChunks * kChunkEntries entries for the whole run.
  void init() {
    arenas.reserve(kFeedChunks);
    for (std::size_t i = 0; i < kFeedChunks; ++i) {
      arenas.push_back(std::make_unique<FeedChunk>());
      arenas.back()->records.reserve(kChunkEntries);
      FeedChunk* chunk = arenas.back().get();
      free_ring.try_push(chunk); // capacity == chunk count: cannot fail
    }
  }

  void close() {
    full.close();
    free_ring.close();
  }

  void run() {
    try {
      feed();
    } catch (...) {
      error = std::current_exception();
      close(); // unblock the router; it aborts on its next pop
    }
  }

private:
  /// A drained chunk, or null once the router closed the rings (abort).
  FeedChunk* acquire() {
    FeedChunk* chunk = nullptr;
    if (!free_ring.try_pop(chunk)) {
      const auto s0 = PerfClock::now();
      if (!free_ring.pop(chunk)) return nullptr;
      stall_s += seconds_since(s0);
    }
    chunk->reset();
    return chunk;
  }

  /// Resolve each request's catalog entry and front-cache outcome into
  /// `records`, in arrival order, with both tables prefetched ahead.
  void resolve(std::span<const workload::Request> reqs,
               std::vector<FeedRecord>& records) {
    const auto& files = catalog->files();
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      if (i + util::kPrefetchAhead < reqs.size()) {
        const workload::FileId ahead = reqs[i + util::kPrefetchAhead].file;
        if (ahead < files.size()) util::prefetch(files.data() + ahead);
        if (cache != nullptr) cache->prefetch(ahead);
      }
      const workload::Request& r = reqs[i];
      const auto& file = catalog->by_id(r.file);
      const bool hit = cache != nullptr && cache->access(file.id, file.size);
      records.push_back(
          FeedRecord{r.arrival, r.id, r.lba, file.size, r.file, hit});
    }
  }

  void feed() {
    const auto t0 = PerfClock::now();
    // One chunk of requests is drawn ahead, so the chunk that ends the
    // stream knows it is last; the stream is still drawn in order.
    std::vector<workload::Request> reqs(kChunkEntries);
    std::size_t n = stream->fill(reqs);
    for (std::uint64_t chunk_idx = 0;; ++chunk_idx) {
      FeedChunk* chunk = acquire();
      if (chunk == nullptr) return;
      const double f0 = profiling ? seconds_since(prof_t0) : 0.0;
      resolve(std::span{reqs}.first(n), chunk->records);
      // A short fill has already ended the stream.
      n = n < kChunkEntries ? 0 : stream->fill(reqs);
      const bool last = n == 0;
      chunk->last = last;
      full.try_push(chunk); // holds a popped chunk: cannot be full
      if (profiling) {
        prof.push_back(obs::TraceEvent{
            f0, chunk_idx, seconds_since(prof_t0) - f0, 0.0,
            obs::kFeederTrack, obs::Kind::kProfile, obs::kProfFeederFill});
      }
      if (last) break;
    }
    busy_s = seconds_since(t0) - stall_s;
  }
};

/// The controller's guess at how long a disk idles before its spin-down
/// policy puts it to sleep: exact for fixed-threshold and never policies,
/// the break-even threshold (the adaptive policies' anchor point) otherwise.
/// Only a prediction heuristic — routing quality, never correctness,
/// depends on it.
double sleep_after_estimate(const ExperimentConfig& config) {
  switch (config.policy.kind) {
    case PolicySpec::Kind::kNever:
      return std::numeric_limits<double>::infinity();
    case PolicySpec::Kind::kFixed:
      return config.policy.fixed_threshold_s;
    default:
      return config.params.break_even_threshold();
  }
}

/// Build the orchestration controller that routes every cache miss of a
/// run; with orchestration off it enables no mechanism and sends each miss
/// to its primary copy.
orch::FleetController make_controller(const ExperimentConfig& config,
                                      const FleetSetup& setup,
                                      obs::TraceBuffer* trace) {
  orch::Config ocfg;
  ocfg.redirect = config.orch.redirect;
  ocfg.offload = config.orch.offload;
  ocfg.log_disks = config.orch.offload ? config.orch.log_disks : 0;
  ocfg.data_disks = config.num_disks - ocfg.log_disks;
  ocfg.replicas = config.replicas;
  ocfg.destage_deadline_s = config.orch.destage_deadline_s;
  ocfg.write_fraction = config.orch.write_fraction;
  ocfg.horizon_s = setup.horizon;
  ocfg.disk_capacity = config.params.capacity;
  orch::ServiceModel model;
  model.position_s = config.params.position_time();
  model.transfer_bps = config.params.transfer_bps;
  model.spinup_s = config.params.spinup_s;
  model.sleep_after_s = sleep_after_estimate(config);
  return orch::FleetController{ocfg, model, config.mapping, setup.extents,
                               trace};
}

std::vector<RunResult> run_routed(const ExperimentConfig& config,
                                  const FleetSetup& setup, FleetPerf* perf,
                                  obs::RunTrace* trace) {
  const std::uint32_t shards = setup.shards;
  const double horizon = setup.horizon;

  const std::uint32_t mask = trace != nullptr ? config.obs.kind_mask() : 0;
  const std::uint32_t sim_mask = mask & ~obs::kind_bit(obs::Kind::kProfile);
  const bool profiling = trace != nullptr && config.obs.profile;
  const auto prof_t0 = PerfClock::now();

  std::vector<std::unique_ptr<RoutedShard>> states;
  states.reserve(shards);
  for (std::uint32_t w = 0; w < shards; ++w) {
    auto state = std::make_unique<RoutedShard>();
    state->sim = setup.make_sim(config, w, sim_mask);
    state->shard = w;
    state->profiling = profiling;
    state->prof_t0 = prof_t0;
    state->init();
    states.push_back(std::move(state));
  }

  const auto cache = config.cache.make();
  const auto stream =
      config.workload.make_stream(*config.catalog, config.seed);
  Feeder feeder;
  feeder.catalog = config.catalog;
  feeder.stream = stream.get();
  feeder.cache = cache.get();
  feeder.profiling = profiling;
  feeder.prof_t0 = prof_t0;
  feeder.init();

  // The router performs every routing decision in global arrival order and
  // is the one writer of the router track: the cache hit/miss spans are
  // emitted here from the feeder's verdicts, in an order no shard count
  // can change.
  obs::TraceBuffer router_trace{sim_mask};
  const bool span_trace =
      cache != nullptr && router_trace.wants(obs::Kind::kSpan);
  // The controller rewrites the post-cache arrival stream in global
  // arrival order — a deterministic, shard-count-invariant function —
  // emitting its orchestration decisions onto the router track.
  auto controller = make_controller(config, setup, &router_trace);
  std::vector<orch::Submission> subs;
  std::vector<obs::TraceEvent> router_prof; ///< kProfRouterFill per chunk

  RunResult root;
  root.power.horizon_s = horizon;
  stats::LinearHistogram root_hist{stats::ResponseSummary::kHistLo,
                                   stats::ResponseSummary::kHistHi,
                                   stats::ResponseSummary::kHistBins};
  std::uint64_t dispatched = 0;
  std::vector<std::size_t> high_water(shards, 0);
  double router_stall = 0.0;
  double router_wall = 0.0;
  std::exception_ptr router_error;

  {
    std::vector<std::jthread> workers;
    workers.reserve(shards);
    for (auto& state : states) {
      workers.emplace_back([s = state.get()] { s->run(); });
    }
    std::jthread feeder_thread;
    const auto t0 = PerfClock::now();
    try {
      // Started inside the try: if it cannot start, the rings below still
      // close and the workers already running still exit.
      feeder_thread = std::jthread{[&feeder] { feeder.run(); }};
      // Blocking pop that charges the blocked time to the router stall
      // counter.  A closed ring means a peer stage died.
      const auto take = [&](auto& ring, auto*& out) {
        if (ring.try_pop(out)) return;
        const auto s0 = PerfClock::now();
        if (!ring.pop(out)) throw PipelineAborted{};
        router_stall += seconds_since(s0);
      };
      // Pop a drained arena for `shard`.
      const auto acquire = [&](std::uint32_t shard) {
        ShardBatch* arena = nullptr;
        take(states[shard]->free_ring, arena);
        return arena;
      };
      const auto publish = [&](std::uint32_t shard, ShardBatch* arena) {
        auto& ring = states[shard]->full;
        // Read before the push: a spinning worker may take the batch
        // before a read after it.
        high_water[shard] = std::max(high_water[shard], ring.size() + 1);
        ring.try_push(arena); // holds a popped arena: cannot be full
      };
      std::vector<ShardBatch*> current(shards, nullptr);
      // Append the controller's submissions to their disks' batches.
      const auto ship = [&] {
        for (const auto& sub : subs) {
          current[sub.disk % shards]->records.push_back(
              ShardRecord{sub.t, sub.request_id, sub.bytes, sub.lba,
                          sub.disk / shards, sub.background});
        }
      };

      // Each feeder chunk becomes one batch per shard.
      for (std::uint64_t chunk_idx = 0;; ++chunk_idx) {
        FeedChunk* chunk = nullptr;
        take(feeder.full, chunk);
        const double f0 = profiling ? seconds_since(prof_t0) : 0.0;
        for (std::uint32_t w = 0; w < shards; ++w) current[w] = acquire(w);
        const auto& records = chunk->records;
        dispatched += records.size();
        for (std::size_t i = 0; i < records.size(); ++i) {
          if (i + util::kPrefetchAhead < records.size()) {
            const FeedRecord& ahead = records[i + util::kPrefetchAhead];
            if (!ahead.hit) controller.prefetch(ahead.file);
          }
          const FeedRecord& r = records[i];
          // Deadline destages due by this arrival ship first, each at its
          // own deadline time, so every shard batch and the router track
          // stay in time order.
          subs.clear();
          if (controller.deadline_due(r.arrival)) {
            controller.flush_deadlines(r.arrival, subs);
          }
          if (r.hit) {
            // Cache hit, served from memory with zero latency: recorded
            // here, in arrival order.
            if (span_trace) {
              router_trace.emit(obs::Kind::kSpan, obs::kSpanCacheHit,
                                r.arrival, obs::kRouterTrack, r.id, r.size);
            }
            root.hits_response.add(0.0);
            root_hist.add(0.0);
          } else {
            if (span_trace) {
              router_trace.emit(obs::Kind::kSpan, obs::kSpanCacheMiss,
                                r.arrival, obs::kRouterTrack, r.id,
                                config.mapping[r.file]);
            }
            workload::FileInfo info;
            info.id = r.file;
            info.size = r.size;
            controller.route(r.arrival, r.id, info, subs, r.lba);
          }
          ship();
        }
        const bool last = chunk->last;
        feeder.free_ring.try_push(chunk); // chunk count == capacity
        if (last) {
          // Every remaining buffered write has a deadline <= horizon (the
          // absorb-time cap), so one flush at the horizon drains the log
          // tier inside the measurement window.
          subs.clear();
          controller.flush_deadlines(horizon, subs);
          ship();
        }
        for (std::uint32_t w = 0; w < shards; ++w) {
          current[w]->final = last;
          publish(w, current[w]);
        }
        if (profiling) {
          router_prof.push_back(obs::TraceEvent{
              f0, chunk_idx, seconds_since(prof_t0) - f0, 0.0,
              obs::kRouterTrack, obs::Kind::kProfile,
              obs::kProfRouterFill});
        }
        if (last) break;
      }
    } catch (...) {
      router_error = std::current_exception();
    }
    router_wall = seconds_since(t0);
    // Normal completion: the feeder has already pushed its terminal chunk,
    // and workers exit after their final batch (pushed before the close,
    // so it is still delivered).  Abort: this wakes the feeder and
    // every blocked worker, which return without finishing.
    feeder.close();
    for (auto& state : states) {
      state->full.close();
      state->free_ring.close();
    }
  } // feeder and workers join here

  for (auto& state : states) {
    if (state->error) std::rethrow_exception(state->error);
  }
  if (feeder.error) std::rethrow_exception(feeder.error);
  if (router_error) std::rethrow_exception(router_error);

  root.requests = dispatched;
  if (cache != nullptr) root.cache = cache->stats();
  root.recompute_from_per_disk(root_hist);

  if (trace != nullptr && mask != 0) {
    trace->horizon_s = horizon;
    trace->shards = shards;
    if (sim_mask != 0) {
      std::vector<obs::TraceBuffer*> buffers;
      buffers.reserve(1 + shards);
      buffers.push_back(&router_trace);
      for (const auto& state : states) {
        buffers.push_back(state->sim->trace_buffer());
      }
      obs::append_canonical(trace->events, buffers);
    }
    trace->profile.insert(trace->profile.end(), router_prof.begin(),
                          router_prof.end());
    trace->profile.insert(trace->profile.end(), feeder.prof.begin(),
                          feeder.prof.end());
    for (const auto& state : states) {
      trace->profile.insert(trace->profile.end(), state->prof.begin(),
                            state->prof.end());
    }
    std::stable_sort(trace->profile.begin(), trace->profile.end(),
                     [](const obs::TraceEvent& a, const obs::TraceEvent& b) {
                       if (obs::track_rank(a.track) != obs::track_rank(b.track))
                         return obs::track_rank(a.track) <
                                obs::track_rank(b.track);
                       return a.t < b.t;
                     });
  }

  std::vector<RunResult> partials;
  partials.reserve(1 + shards);
  partials.push_back(std::move(root));
  for (auto& state : states) partials.push_back(std::move(state->partial));

  if (perf != nullptr) {
    perf->router_busy_s = std::max(0.0, router_wall - router_stall);
    perf->router_stall_s = router_stall;
    perf->feeder_busy_s = feeder.busy_s;
    perf->feeder_stall_s = feeder.stall_s;
    perf->per_shard.resize(shards);
    perf->worker_busy_s.assign(shards, 0.0);
    perf->worker_wait_s.assign(shards, 0.0);
    for (std::uint32_t w = 0; w < shards; ++w) {
      perf->per_shard[w].shard = w;
      perf->per_shard[w].submissions = states[w]->sim->submissions();
      perf->per_shard[w].batches = states[w]->batches;
      perf->per_shard[w].events = partials[w + 1].events;
      perf->per_shard[w].ring_high_water = high_water[w];
      perf->worker_busy_s[w] = states[w]->busy_s;
      perf->worker_wait_s[w] = states[w]->wait_s;
    }
  }
  return partials;
}

} // namespace

std::uint32_t effective_shards(std::uint32_t requested,
                               std::uint32_t num_disks) {
  std::uint32_t shards = requested;
  if (requested == 0) {
    shards = std::thread::hardware_concurrency();
    if (shards == 0) shards = 1;
    // Oversharding floor: auto never lands a shard below
    // kAutoMinDisksPerShard disks — at that granularity the pipeline
    // overhead outweighs the parallelism (the 4096-disk × 8-shard
    // regression in BENCH_fleet.json's PR-7 snapshot).
    shards = std::min(
        shards,
        std::max<std::uint32_t>(1, num_disks / kAutoMinDisksPerShard));
  }
  return std::max<std::uint32_t>(1, std::min(shards, num_disks));
}

std::vector<RunResult> run_fleet_partials(const ExperimentConfig& config,
                                          std::uint32_t shards,
                                          FleetPerf* perf,
                                          obs::RunTrace* trace) {
  if (config.catalog == nullptr) {
    throw std::invalid_argument{"ExperimentConfig: catalog is required"};
  }
  if (config.mapping.size() < config.catalog->size()) {
    throw std::invalid_argument{
        "ExperimentConfig: mapping smaller than catalog"};
  }
  for (const auto d : config.mapping) {
    if (d >= config.num_disks) {
      throw std::invalid_argument{
          "ExperimentConfig: mapping references disk >= num_disks"};
    }
  }
  const double horizon = config.workload.measurement_horizon();
  if (!(horizon > 0.0)) {
    throw std::invalid_argument{
        "ExperimentConfig: the workload's measurement horizon must be "
        "positive (got " + util::format_roundtrip(horizon) + " s)"};
  }
  config.obs.check_metric_ticks(horizon);
  shards = std::max<std::uint32_t>(
      1, std::min(shards, std::max<std::uint32_t>(1, config.num_disks)));

  const FleetSetup setup{config, shards};
  if (perf != nullptr) {
    *perf = FleetPerf{};
    perf->shards = shards;
  }
  if (trace != nullptr && !config.obs.enabled()) trace = nullptr;
  return run_routed(config, setup, perf, trace);
}

} // namespace spindown::sys
