#include "sys/fleet.h"

#include <algorithm>
#include <exception>
#include <limits>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>

#include "cache/cache.h"
#include "des/simulation.h"
#include "disk/disk.h"
#include "obs/profile.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "orch/controller.h"
#include "stats/summary.h"
#include "stats/welford.h"
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
/// (and batch memory) without stalling workers that lag a window or two.
/// Because the router can only hold batches it popped from the free ring,
/// the full ring can never overflow — the free ring is the one
/// backpressure point in the pipeline.
constexpr std::size_t kBatchesPerShard = 16;

/// Pre-routed submissions for one shard, one synchronization window.
/// Structure-of-arrays like workload::RequestBlock: the worker's replay
/// loop touches time[] on every iteration but the payload fields only at
/// submit time.  Instances live in per-shard arenas and are recycled
/// through the free ring — reset() keeps vector capacity, so the steady
/// state allocates nothing.
struct ShardBatch {
  std::vector<double> time;
  std::vector<std::uint64_t> request_id;
  std::vector<util::Bytes> bytes;
  std::vector<std::uint64_t> lba;
  std::vector<std::uint64_t> blocks;
  std::vector<std::uint32_t> local_disk;
  std::vector<std::uint8_t> background; ///< orchestration destage I/O
  /// The routed frontier: the worker may advance its clock here after
  /// replaying the batch (the router has routed every arrival below it).
  double advance_to = 0.0;
  bool final = false;

  std::size_t size() const { return time.size(); }
  void push(double t, std::uint64_t id, util::Bytes b, std::uint64_t l,
            std::uint64_t nblocks, std::uint32_t disk, bool bg = false) {
    time.push_back(t);
    request_id.push_back(id);
    bytes.push_back(b);
    lba.push_back(l);
    blocks.push_back(nblocks);
    local_disk.push_back(disk);
    background.push_back(bg ? 1 : 0);
  }
  void reset() {
    time.clear();
    request_id.clear();
    bytes.clear();
    lba.clear();
    blocks.clear();
    local_disk.clear();
    background.clear();
    advance_to = 0.0;
    final = false;
  }
};

/// Arrivals per feeder chunk and chunks in flight between feeder and
/// router.  Bounds feeder run-ahead and handoff memory (about 150 KB per
/// chunk) independently of the window length; like the shard arenas, the
/// chunks are only ever held by one side, so the free ring is the feeder's
/// one backpressure point.
constexpr std::size_t kChunkEntries = 4096;
constexpr std::size_t kFeedChunks = 8;

/// Cache-filtered arrivals, in arrival order, for (part of) one window.
/// The feeder fills `block` straight from the windowed stream and resolves
/// each arrival's catalog size and cache outcome; the router consumes the
/// parallel arrays without touching the catalog or the cache.
struct FeedChunk {
  workload::RequestBlock block; ///< arrival, id, file, lba
  std::vector<util::Bytes> size;
  std::vector<std::uint8_t> hit; ///< 1 = served from the front cache
  double frontier = 0.0; ///< the window this chunk belongs to ends here
  bool ends_window = false; ///< no more arrivals below `frontier` follow
  bool last = false; ///< empty terminal chunk: the stream is exhausted

  void reserve() {
    block.arrival.reserve(kChunkEntries);
    block.id.reserve(kChunkEntries);
    block.file.reserve(kChunkEntries);
    block.lba.reserve(kChunkEntries);
    size.reserve(kChunkEntries);
    hit.reserve(kChunkEntries);
  }
  void reset() {
    block.clear();
    size.clear();
    hit.clear();
    frontier = 0.0;
    ends_window = false;
    last = false;
  }
};

/// One shard's private calendar: the disks with id % shards == shard
/// (local index l holds global disk shard + l * shards), per-disk response
/// accumulators, and the horizon-snapshot rule — the simulator's one
/// episode.  Heap-allocated and never moved: the completion callbacks
/// capture member addresses.
class ShardSim {
public:
  /// `obs_mask` non-zero enables tracing into a shard-private buffer
  /// (single-writer: exactly one thread ever drives this calendar).  The
  /// sampler is started after every disk exists, so its calendar ticks are
  /// inserted after all idle timers at any shard count, hence the same
  /// measure-zero tie resolution.
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
    responses_.resize(disk_ids.size());
    for (std::size_t l = 0; l < disk_ids.size(); ++l) {
      disks_.push_back(std::make_unique<disk::Disk>(
          sim_, disk_ids[l], config.params, policies[l]->make(config.params),
          rngs[l], config.scheduler.make()));
      if (trace_ != nullptr) disks_.back()->set_trace(trace_.get());
      disks_.back()->set_completion_callback(
          [&resp = responses_[l], this](const disk::Completion& c) {
            if (c.background) return; // destage I/O: not a client response
            resp.add(c.response_time());
            hist_.add(c.response_time());
          });
    }
    if (trace_ != nullptr) {
      sampler_ = std::make_unique<obs::MetricsSampler>(
          sim_, metrics_interval_s, horizon, trace_.get());
      for (const auto& d : disks_) sampler_->add_disk(d.get());
      sampler_->start();
    }
  }
  ShardSim(const ShardSim&) = delete;
  ShardSim& operator=(const ShardSim&) = delete;

  /// Fixed tie rule: every pending disk event at t <= arrival runs before
  /// a submission at t — identical at any shard count.  The horizon
  /// snapshot (freezing the power/queue counters) is taken before the
  /// local clock first passes the horizon.
  void advance(double t) {
    if (snapshot_.empty() && t >= horizon_) {
      sim_.run_until(horizon_);
      snapshot_.reserve(disks_.size());
      for (const auto& d : disks_) snapshot_.push_back(d->metrics(horizon_));
    }
    sim_.run_until(t);
  }

  void submit(std::uint32_t local_disk, std::uint64_t request_id,
              util::Bytes bytes, std::uint64_t lba, std::uint64_t blocks,
              bool background = false) {
    disks_[local_disk]->submit(request_id, bytes, lba, blocks, background);
    ++submissions_;
  }

  double now() const { return sim_.now(); }
  std::uint64_t submissions() const { return submissions_; }
  obs::TraceBuffer* trace_buffer() { return trace_.get(); }

  /// Drain: in-flight services run to completion past the horizon and
  /// still record their response times.
  RunResult finalize() {
    advance(horizon_);
    sim_.run();
    for (std::size_t l = 0; l < snapshot_.size(); ++l) {
      snapshot_[l].response = responses_[l];
    }
    RunResult partial;
    partial.power.horizon_s = horizon_;
    // Sampler ticks are observation overhead, not simulated physics:
    // subtract them so `events` matches the untraced run bit-for-bit.
    partial.events =
        sim_.executed() - (sampler_ != nullptr ? sampler_->ticks() : 0);
    partial.per_disk = std::move(snapshot_);
    partial.recompute_from_per_disk(hist_);
    return partial;
  }

private:
  des::Simulation sim_;
  std::unique_ptr<obs::TraceBuffer> trace_;
  std::unique_ptr<obs::MetricsSampler> sampler_;
  std::vector<std::unique_ptr<disk::Disk>> disks_;
  std::vector<stats::Welford> responses_;
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
  /// collected by the pipelines themselves, not the shard calendars).
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

/// One routed shard: a private calendar, the full ring (router -> worker,
/// carries filled batches) and the free ring (worker -> router, recycles
/// drained arenas).  The arenas double-buffer generically: the router
/// fills window N+1 (or several) while the worker drains window N, and a
/// full free ring is what parks an idle router.
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
      for (std::size_t i = 0; i < batch->size(); ++i) {
        sim->advance(batch->time[i]);
        sim->submit(batch->local_disk[i], batch->request_id[i],
                    batch->bytes[i], batch->lba[i], batch->blocks[i],
                    batch->background[i] != 0);
      }
      const bool final = batch->final;
      if (!final && batch->advance_to > sim->now()) {
        sim->advance(batch->advance_to);
      }
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

/// The pipeline's first stage, on its own thread: pulls the arrival stream
/// in conservative windows, resolves each arrival's catalog entry and front
/// cache outcome in global arrival order (the cache has no other user), and
/// forwards the results to the router in fixed-size chunks over `full`;
/// the router returns drained chunks over `free_ring`.
struct Feeder {
  const workload::FileCatalog* catalog = nullptr;
  workload::RequestStream* stream = nullptr;
  cache::FileCache* cache = nullptr; ///< null: no front cache
  double horizon = 0.0;
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
  /// memory is kFeedChunks * kChunkEntries entries whatever the window.
  void init() {
    arenas.reserve(kFeedChunks);
    for (std::size_t i = 0; i < kFeedChunks; ++i) {
      arenas.push_back(std::make_unique<FeedChunk>());
      arenas.back()->reserve();
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

  void feed() {
    const auto t0 = PerfClock::now();
    // Conservative windows: the router routes all arrivals below each
    // frontier, then lets every shard advance to it.  Any length is
    // causally safe (no feedback path); this one bounds batch memory to a
    // few thousand submissions per shard at the bench's request rates.
    const double window = std::max(1e-3, horizon / 256.0);
    workload::WindowedStream windowed{*stream};
    double frontier = 0.0;
    std::uint64_t chunk_idx = 0;
    while (!windowed.exhausted()) {
      frontier += window;
      if (windowed.next_arrival() >= frontier) {
        // Idle stretch: jump the frontier to the next arrival's window
        // instead of shipping empty windows one by one.
        frontier = windowed.next_arrival() + window;
      }
      bool ends_window = false;
      while (!ends_window) {
        FeedChunk* chunk = acquire();
        if (chunk == nullptr) return;
        const double f0 = profiling ? seconds_since(prof_t0) : 0.0;
        auto& block = chunk->block;
        windowed.fill(frontier, kChunkEntries, block);
        for (std::size_t i = 0; i < block.size(); ++i) {
          const auto& file = catalog->by_id(block.file[i]);
          chunk->size.push_back(file.size);
          chunk->hit.push_back(
              cache != nullptr && cache->access(file.id, file.size) ? 1 : 0);
        }
        ends_window =
            windowed.exhausted() || windowed.next_arrival() >= frontier;
        chunk->frontier = frontier;
        chunk->ends_window = ends_window;
        full.try_push(chunk); // holds a popped chunk: cannot be full
        if (profiling) {
          prof.push_back(obs::TraceEvent{
              f0, chunk_idx, seconds_since(prof_t0) - f0, 0.0,
              obs::kFeederTrack, obs::Kind::kProfile,
              obs::kProfFeederFill});
        }
        ++chunk_idx;
      }
    }
    FeedChunk* last = acquire();
    if (last == nullptr) return;
    last->last = true;
    full.try_push(last);
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

/// Build the orchestration controller for a routed run, or null when the
/// scenario has orchestration off.
std::unique_ptr<orch::FleetController> make_controller(
    const ExperimentConfig& config, const FleetSetup& setup,
    obs::TraceBuffer* trace) {
  if (!config.orch.enabled()) return nullptr;
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
  return std::make_unique<orch::FleetController>(ocfg, model, config.mapping,
                                                 setup.extents, trace);
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
  feeder.horizon = horizon;
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
  // Orchestration: the controller rewrites the post-cache arrival stream in
  // global arrival order — a deterministic, shard-count-invariant function
  // — emitting its decisions onto the router track.
  const auto controller = make_controller(config, setup, &router_trace);
  std::vector<orch::Submission> subs;
  std::vector<obs::TraceEvent> router_prof; ///< kProfRouterFill per window
  std::uint64_t window_idx = 0;

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
        ring.try_push(arena); // holds a popped arena: cannot be full
        high_water[shard] = std::max(high_water[shard], ring.size());
      };
      std::vector<ShardBatch*> current(shards, nullptr);
      // Append the controller's submissions to their disks' batches.
      const auto ship = [&] {
        for (const auto& sub : subs) {
          current[sub.disk % shards]->push(sub.t, sub.request_id, sub.bytes,
                                           sub.lba, sub.blocks,
                                           sub.disk / shards, sub.background);
        }
      };

      // One window spans one or more feeder chunks; its shard batches are
      // published once the chunk that ends it has been routed.
      bool window_open = false;
      double f0 = 0.0;
      for (;;) {
        FeedChunk* chunk = nullptr;
        take(feeder.full, chunk);
        if (chunk->last) break;
        if (!window_open) {
          f0 = profiling ? seconds_since(prof_t0) : 0.0;
          for (std::uint32_t w = 0; w < shards; ++w) current[w] = acquire(w);
          window_open = true;
        }
        const auto& block = chunk->block;
        dispatched += block.size();
        for (std::size_t i = 0; i < block.size(); ++i) {
          const workload::FileId file = block.file[i];
          if (chunk->hit[i] != 0) {
            // Cache hit, served from memory with zero latency: recorded
            // here, in arrival order.
            if (span_trace) {
              router_trace.emit(obs::Kind::kSpan, obs::kSpanCacheHit,
                                block.arrival[i], obs::kRouterTrack,
                                block.id[i], chunk->size[i]);
            }
            root.hits_response.add(0.0);
            root_hist.add(0.0);
            continue;
          }
          const std::uint32_t disk = config.mapping[file];
          if (span_trace) {
            router_trace.emit(obs::Kind::kSpan, obs::kSpanCacheMiss,
                              block.arrival[i], obs::kRouterTrack,
                              block.id[i], disk);
          }
          if (controller != nullptr) {
            // Deadline destages due before this arrival ship first (each
            // at its own deadline time), then the arrival's rewritten
            // submissions — so per-shard batch times stay non-decreasing.
            workload::FileInfo info;
            info.id = file;
            info.size = chunk->size[i];
            subs.clear();
            controller->flush_deadlines(block.arrival[i], subs);
            controller->route(block.arrival[i], block.id[i], info, subs);
            ship();
            continue;
          }
          const auto& extent = setup.extents[file];
          const std::uint64_t lba = block.lba[i] != workload::kNoLba
                                        ? block.lba[i]
                                        : extent.lba;
          current[disk % shards]->push(block.arrival[i], block.id[i],
                                       chunk->size[i], lba, extent.blocks,
                                       disk / shards);
        }
        const double frontier = chunk->frontier;
        const bool ends_window = chunk->ends_window;
        feeder.free_ring.try_push(chunk); // chunk count == capacity
        if (!ends_window) continue;
        if (controller != nullptr) {
          // Destages due inside this window but after its last arrival:
          // flushed at the frontier so the next window's arrivals (all
          // >= frontier) still land after them.
          subs.clear();
          controller->flush_deadlines(frontier, subs);
          ship();
        }
        for (std::uint32_t w = 0; w < shards; ++w) {
          current[w]->advance_to = frontier;
          publish(w, current[w]);
          current[w] = nullptr;
        }
        window_open = false;
        if (profiling) {
          router_prof.push_back(obs::TraceEvent{
              f0, window_idx, seconds_since(prof_t0) - f0, 0.0,
              obs::kRouterTrack, obs::Kind::kProfile,
              obs::kProfRouterFill});
        }
        ++window_idx;
      }
      if (controller != nullptr) {
        // Every remaining buffered write has a deadline <= horizon (the
        // absorb-time cap), so one flush at the horizon drains the log
        // tier inside the measurement window.
        subs.clear();
        controller->flush_deadlines(horizon, subs);
        if (!subs.empty()) {
          for (std::uint32_t w = 0; w < shards; ++w) current[w] = acquire(w);
          ship();
          for (std::uint32_t w = 0; w < shards; ++w) {
            current[w]->advance_to = horizon;
            publish(w, current[w]);
            current[w] = nullptr;
          }
        }
      }
      for (std::uint32_t w = 0; w < shards; ++w) {
        ShardBatch* last = acquire(w);
        last->final = true;
        last->advance_to = horizon;
        publish(w, last);
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
    throw std::invalid_argument{"run_fleet: mapping smaller than catalog"};
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

RunResult run_fleet(const ExperimentConfig& config, std::uint32_t shards,
                    FleetPerf* perf, obs::RunTrace* trace) {
  auto partials = run_fleet_partials(config, shards, perf, trace);
  RunResult result;
  for (const auto& p : partials) result.merge(p);
  return result;
}

} // namespace spindown::sys
