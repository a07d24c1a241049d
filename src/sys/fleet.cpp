#include "sys/fleet.h"

#include <algorithm>
#include <exception>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
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

/// Raised by a blocking pop on a closed ring: a peer stage died (its own
/// exception is the root cause and is rethrown after join).
struct PipelineAborted {};

/// One pipeline stage's wall clock: the single timing path behind both the
/// stage's FleetPerf counters and its kProfile samples.  Busy time is the
/// stage's wall time minus the time it blocked on rings.  A blocked
/// interval is measured once, where the stage blocks, and that one double
/// feeds blocked_s and, for a worker, the kProfRingWait sample.
struct StageClock {
  PerfClock::time_point origin; ///< run-wide origin of the sample times
  bool profiling = false;       ///< obs profile: take samples
  std::uint32_t track = 0;      ///< the samples' trace track

  /// Call first and last on the stage's thread; stop() sets busy_s.
  void start() { started = PerfClock::now(); }
  void stop() { busy_s = std::max(0.0, seconds_since(started) - blocked_s); }

  /// The profile time of now, or 0 without a clock read when not profiling.
  double mark() const { return profiling ? seconds_since(origin) : 0.0; }

  /// Under obs profile, record the `code` sample of chunk or batch `id`,
  /// lasting `value` seconds from `t0`.
  void sample(std::uint8_t code, std::uint64_t id, double t0, double value) {
    if (profiling) {
      samples.push_back(obs::TraceEvent{t0, id, value, 0.0, track,
                                        obs::Kind::kProfile, code});
    }
  }
  /// As above, lasting from `t0` (a mark()) until now.
  void sample(std::uint8_t code, std::uint64_t id, double t0) {
    if (profiling) sample(code, id, t0, seconds_since(origin) - t0);
  }

  /// Pop from `ring`, blocking while it is empty; throws PipelineAborted
  /// once it is closed and drained.  Only a pop that blocks reads the
  /// clock, and its blocked time goes to blocked_s and last_blocked_s.
  template <class T>
  T pop(util::SpscRing<T>& ring) {
    T out{};
    last_blocked_s = 0.0;
    if (ring.try_pop(out)) return out;
    const auto b0 = PerfClock::now();
    if (!ring.pop(out)) throw PipelineAborted{};
    last_blocked_s = seconds_since(b0);
    blocked_s += last_blocked_s;
    return out;
  }

  PerfClock::time_point started{};
  // Outputs, read after join.
  double busy_s = 0.0;
  double blocked_s = 0.0;
  double last_blocked_s = 0.0; ///< the latest pop's share of blocked_s
  std::vector<obs::TraceEvent> samples{};
};

/// Records handed from one stage to the next, one feeder chunk's worth.
/// Batches live in their handoff's arenas and are recycled: emptying keeps
/// the vector's capacity, so the steady state allocates nothing.  One cache
/// line each: a consumer re-reads its batch's bounds every record while the
/// producer grows the next batch.
template <class Record>
struct alignas(util::kCacheLineSize) Batch {
  std::vector<Record> records;
  bool last = false; ///< the producer's final batch
};

/// One hop of the pipeline: a lock-free full ring (producer -> consumer,
/// carries filled batches), a free ring (consumer -> producer, recycles
/// drained ones) and the batches themselves.  Each side only ever holds
/// batches it popped, and either ring can hold them all, so no push can
/// fail: the free ring is the hop's one backpressure point, and an empty
/// free ring is what parks a producer that ran ahead.
template <class Record>
class Handoff {
public:
  /// Preloads the free ring with `count` batches of `reserve` records each,
  /// allocated on the calling thread.
  Handoff(std::size_t count, std::size_t reserve)
      : full_{count}, free_{count}, arenas_(count) {
    for (Batch<Record>& arena : arenas_) {
      arena.records.reserve(reserve);
      Batch<Record>* batch = &arena;
      free_.try_push(batch);
    }
  }

  /// Producer side: an empty batch to fill (the producer sets `last`).
  Batch<Record>* acquire(StageClock& clock) {
    Batch<Record>* batch = clock.pop(free_);
    batch->records.clear();
    return batch;
  }
  void publish(Batch<Record>* batch) {
    // Read before the push: a spinning consumer may take the batch before
    // a read after it.
    high_water = std::max(high_water, full_.size() + 1);
    full_.try_push(batch);
  }

  /// Consumer side: the next filled batch, then its return.
  Batch<Record>* take(StageClock& clock) { return clock.pop(full_); }
  void release(Batch<Record>* batch) { free_.try_push(batch); }

  /// Wakes both sides; any later pop of an empty ring aborts.  Batches
  /// published before the close are still delivered.
  void close() {
    full_.close();
    free_.close();
  }

  /// Max full-ring occupancy a publish brought the ring to.
  std::size_t high_water = 0;

private:
  util::SpscRing<Batch<Record>*> full_;
  util::SpscRing<Batch<Record>*> free_;
  std::vector<Batch<Record>> arenas_; ///< never resized: fixed addresses
};

/// Runs `work`, the body of a feeder or worker thread, timed on `clock`.
/// A closed ring ends it quietly; any other exception is kept in `error`
/// for rethrow after join, and closes `handoff` so the router aborts on its
/// next pop.
template <class Record, class Work>
void run_stage(StageClock& clock, Handoff<Record>& handoff,
               std::exception_ptr& error, Work&& work) {
  clock.start();
  try {
    work();
    clock.stop();
  } catch (const PipelineAborted&) {
  } catch (...) {
    error = std::current_exception();
    handoff.close();
  }
}

/// Batches in flight per shard: bounds router run-ahead (and batch memory)
/// without stalling workers that lag a chunk or two.
constexpr std::size_t kBatchesPerShard = 16;

/// Arrivals per feeder chunk and chunks in flight between feeder and
/// router: bounds feeder run-ahead and handoff memory (160 KB per chunk).
/// A chunk is the pipeline's one unit of handoff: the router turns each
/// into one batch per shard.
constexpr std::size_t kChunkEntries = 4096;
constexpr std::size_t kFeedChunks = 8;

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

/// Disk `d`'s spin-down policy: the farm's, unless an override names the
/// disk (the last one wins).  The orchestration log tier never sleeps — it
/// absorbs writes precisely because it is always on.
PolicySpec policy_for(const ExperimentConfig& config, std::uint32_t d) {
  PolicySpec policy = config.policy;
  for (const auto& [disk_id, override_policy] : config.policy_overrides) {
    if (disk_id == d) policy = override_policy;
  }
  if (config.orch.offload && d >= config.num_disks - config.orch.log_disks) {
    policy = PolicySpec::never();
  }
  return policy;
}

/// One shard and its worker: the disks with id % shards == shard (local
/// index l holds global disk shard + l * shards), the shard's response
/// histogram, the metrics sampler and the horizon-snapshot rule — the
/// simulator's one episode — fed by the handoff from the router.  Disks
/// never interact, so there is no calendar: each disk settles its own
/// timeline (disk.h) when a submission, a sampler tick or the snapshot
/// reaches it, and books its own responses.  Heap-allocated and never
/// moved: every disk holds the address of hist_.
class Shard {
public:
  /// `rngs[d]` is disk d's stream.  `obs_mask` (sim-time kinds only)
  /// non-zero enables tracing into a shard-private buffer: only the worker
  /// thread ever drives this shard.
  Shard(const ExperimentConfig& config, std::uint32_t shard,
        std::uint32_t shards, double horizon,
        const std::vector<util::Rng>& rngs, std::uint32_t obs_mask,
        StageClock stage_clock)
      : clock{std::move(stage_clock)}, horizon_(horizon) {
    if (obs_mask != 0) {
      trace_ = std::make_unique<obs::TraceBuffer>(obs_mask);
      sampler_ = std::make_unique<obs::MetricsSampler>(
          config.obs.metrics_interval_s, horizon, trace_.get());
    }
    for (std::uint32_t d = shard; d < config.num_disks; d += shards) {
      disks_.push_back(std::make_unique<disk::Disk>(
          d, config.params, policy_for(config, d).make(config.params),
          rngs[d], config.scheduler.queue()));
      disks_.back()->set_response_histogram(&hist_);
      if (trace_ != nullptr) {
        disks_.back()->set_trace(trace_.get());
        sampler_->add_disk(disks_.back().get());
      }
    }
  }
  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  /// The worker thread's body.
  void run() { run_stage(clock, handoff, error, [this] { consume(); }); }

  obs::TraceBuffer* trace_buffer() { return trace_.get(); }

  Handoff<ShardRecord> handoff{kBatchesPerShard, 0};
  // Outputs, read after join.
  StageClock clock;
  RunResult partial;
  std::exception_ptr error;
  std::uint64_t batches = 0;
  std::uint64_t submissions = 0;

private:
  void consume() {
    for (;;) {
      const double w0 = clock.mark();
      auto* batch = handoff.take(clock);
      ++batches;
      clock.sample(obs::kProfRingWait, batches, w0, clock.last_blocked_s);
      const double r0 = clock.mark();
      for (const ShardRecord& r : batch->records) submit(r);
      const bool last = batch->last;
      handoff.release(batch);
      clock.sample(obs::kProfWorkerReplay, batches, r0);
      if (last) break;
    }
    partial = finalize();
  }

  /// Replay one routed submission.  Disk::submit settles its disk to the
  /// record's time first, so every transition at t' <= t precedes a
  /// submission at t — a fixed tie rule that does not depend on how many
  /// shards exist.
  void submit(const ShardRecord& r) {
    advance(r.time);
    disks_[r.local_disk]->submit(r.time, r.request_id, r.bytes, r.lba,
                                 r.background);
    ++submissions;
  }

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

  /// Drain: in-flight services run to completion past the horizon and
  /// still record their response times; settling each disk to +infinity
  /// also plays its trailing idle chain out into the trace.
  RunResult finalize() {
    advance(horizon_);
    RunResult out;
    for (const auto& d : disks_) {
      d->settle_all();
      out.events += d->events();
    }
    for (std::size_t l = 0; l < snapshot_.size(); ++l) {
      snapshot_[l].response = disks_[l]->response();
    }
    out.power.horizon_s = horizon_;
    out.per_disk = std::move(snapshot_);
    out.recompute_from_per_disk(hist_);
    return out;
  }

  std::unique_ptr<obs::TraceBuffer> trace_;
  std::unique_ptr<obs::MetricsSampler> sampler_;
  std::vector<std::unique_ptr<disk::Disk>> disks_;
  stats::LinearHistogram hist_{stats::ResponseSummary::kHistLo,
                               stats::ResponseSummary::kHistHi,
                               stats::ResponseSummary::kHistBins};
  std::vector<disk::DiskMetrics> snapshot_;
  double horizon_ = 0.0;
};

/// The pipeline's first stage, on its own thread: pulls the arrival stream,
/// resolves each arrival's catalog entry and front cache outcome in global
/// arrival order (the cache has no other user), and hands the results to
/// the router in chunks of up to kChunkEntries.
struct Feeder {
  const workload::FileCatalog* catalog = nullptr;
  std::unique_ptr<workload::RequestStream> stream;
  std::unique_ptr<cache::FileCache> cache; ///< null: no front cache
  StageClock clock;
  /// Every chunk is reserved up front, so handoff memory is
  /// kFeedChunks * kChunkEntries records for the whole run.
  Handoff<FeedRecord> handoff{kFeedChunks, kChunkEntries};
  std::exception_ptr error{}; ///< read after join

  void run() { run_stage(clock, handoff, error, [this] { feed(); }); }

private:
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
    // One chunk of requests is drawn ahead, so the chunk that ends the
    // stream knows it is last; the stream is still drawn in order.
    std::vector<workload::Request> reqs(kChunkEntries);
    std::size_t n = stream->fill(reqs);
    for (std::uint64_t chunk_idx = 0;; ++chunk_idx) {
      auto* chunk = handoff.acquire(clock);
      const double f0 = clock.mark();
      resolve(std::span{reqs}.first(n), chunk->records);
      // A short fill has already ended the stream.
      n = n < kChunkEntries ? 0 : stream->fill(reqs);
      chunk->last = n == 0;
      handoff.publish(chunk);
      clock.sample(obs::kProfFeederFill, chunk_idx, f0);
      if (n == 0) break;
    }
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
/// to its primary copy.  The controller keeps a reference to `extents`,
/// the catalog's layout extents.
orch::FleetController make_controller(
    const ExperimentConfig& config, double horizon,
    const std::vector<workload::FileExtent>& extents,
    obs::TraceBuffer* trace) {
  orch::Config ocfg;
  ocfg.redirect = config.orch.redirect;
  ocfg.offload = config.orch.offload;
  ocfg.log_disks = config.orch.offload ? config.orch.log_disks : 0;
  ocfg.data_disks = config.num_disks - ocfg.log_disks;
  ocfg.replicas = config.replicas;
  ocfg.destage_deadline_s = config.orch.destage_deadline_s;
  ocfg.write_fraction = config.orch.write_fraction;
  ocfg.horizon_s = horizon;
  ocfg.disk_capacity = config.params.capacity;
  orch::ServiceModel model;
  model.position_s = config.params.position_time();
  model.transfer_bps = config.params.transfer_bps;
  model.spinup_s = config.params.spinup_s;
  model.sleep_after_s = sleep_after_estimate(config);
  return orch::FleetController{ocfg, model, config.mapping, extents, trace};
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
  if (config.orch.offload && config.num_disks < config.orch.log_disks) {
    throw std::invalid_argument{
        "ExperimentConfig: orch offload needs " +
        std::to_string(config.orch.log_disks) + " log disks but num_disks is " +
        std::to_string(config.num_disks)};
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
  if (trace != nullptr && !config.obs.enabled()) trace = nullptr;

  const std::uint32_t mask = trace != nullptr ? config.obs.kind_mask() : 0;
  const std::uint32_t sim_mask = mask & ~obs::kind_bit(obs::Kind::kProfile);
  const bool profiling = trace != nullptr && config.obs.profile;
  const auto origin = PerfClock::now();

  // Each disk's RNG is split from the farm RNG in disk-id order, so its
  // draw stream is a function of (seed, disk id) alone, never of the
  // partition.
  std::vector<util::Rng> rngs;
  rngs.reserve(config.num_disks);
  util::Rng farm_rng{config.seed};
  for (std::uint32_t d = 0; d < config.num_disks; ++d) {
    rngs.push_back(farm_rng.split());
  }
  std::vector<std::unique_ptr<Shard>> shard_list;
  shard_list.reserve(shards);
  for (std::uint32_t w = 0; w < shards; ++w) {
    shard_list.push_back(
        std::make_unique<Shard>(config, w, shards, horizon, rngs, sim_mask,
                                StageClock{origin, profiling, w}));
  }

  Feeder feeder{
      .catalog = config.catalog,
      .stream = config.workload.make_stream(*config.catalog, config.seed),
      .cache = config.cache.make(),
      .clock = StageClock{origin, profiling, obs::kFeederTrack}};

  // The router performs every routing decision in global arrival order and
  // is the one writer of the router track: the cache hit/miss spans are
  // emitted here from the feeder's verdicts, in an order no shard count
  // can change.
  obs::TraceBuffer router_trace{sim_mask};
  const bool span_trace =
      feeder.cache != nullptr && router_trace.wants(obs::Kind::kSpan);
  // The controller rewrites the post-cache arrival stream in global
  // arrival order — a deterministic, shard-count-invariant function —
  // emitting its orchestration decisions onto the router track.
  const auto extents = workload::layout_extents(
      *config.catalog, config.mapping, config.num_disks);
  auto controller = make_controller(config, horizon, extents, &router_trace);
  std::vector<orch::Submission> subs;
  StageClock router_clock{origin, profiling, obs::kRouterTrack};

  RunResult root;
  root.power.horizon_s = horizon;
  stats::LinearHistogram root_hist{stats::ResponseSummary::kHistLo,
                                   stats::ResponseSummary::kHistHi,
                                   stats::ResponseSummary::kHistBins};
  std::uint64_t dispatched = 0;
  std::exception_ptr router_error;

  {
    std::vector<std::jthread> workers;
    workers.reserve(shards);
    for (auto& s : shard_list) {
      workers.emplace_back([s = s.get()] { s->run(); });
    }
    std::jthread feeder_thread;
    router_clock.start();
    try {
      // Started inside the try: if it cannot start, the rings below still
      // close and the workers already running still exit.
      feeder_thread = std::jthread{[&feeder] { feeder.run(); }};
      std::vector<Batch<ShardRecord>*> current(shards, nullptr);
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
        auto* chunk = feeder.handoff.take(router_clock);
        const double f0 = router_clock.mark();
        for (std::uint32_t w = 0; w < shards; ++w) {
          current[w] = shard_list[w]->handoff.acquire(router_clock);
        }
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
        feeder.handoff.release(chunk);
        if (last) {
          // Every remaining buffered write has a deadline <= horizon (the
          // absorb-time cap), so one flush at the horizon drains the log
          // tier inside the measurement window.
          subs.clear();
          controller.flush_deadlines(horizon, subs);
          ship();
        }
        for (std::uint32_t w = 0; w < shards; ++w) {
          current[w]->last = last;
          shard_list[w]->handoff.publish(current[w]);
        }
        router_clock.sample(obs::kProfRouterFill, chunk_idx, f0);
        if (last) break;
      }
    } catch (...) {
      router_error = std::current_exception();
    }
    router_clock.stop();
    // Normal completion: the feeder has already published its last chunk,
    // and workers exit after their last batch (published before the close,
    // so it is still delivered).  Abort: this wakes the feeder and every
    // blocked worker, which return without finishing.
    feeder.handoff.close();
    for (auto& s : shard_list) s->handoff.close();
  } // feeder and workers join here

  for (auto& s : shard_list) {
    if (s->error) std::rethrow_exception(s->error);
  }
  if (feeder.error) std::rethrow_exception(feeder.error);
  if (router_error) std::rethrow_exception(router_error);

  root.requests = dispatched;
  if (feeder.cache != nullptr) root.cache = feeder.cache->stats();
  root.recompute_from_per_disk(root_hist);

  if (trace != nullptr) {
    trace->horizon_s = horizon;
    trace->shards = shards;
    if (sim_mask != 0) {
      std::vector<obs::TraceBuffer*> buffers{&router_trace};
      for (const auto& s : shard_list) buffers.push_back(s->trace_buffer());
      obs::append_canonical(trace->events, buffers);
    }
    auto& profile = trace->profile;
    const auto add = [&](const StageClock& c) {
      profile.insert(profile.end(), c.samples.begin(), c.samples.end());
    };
    add(router_clock);
    add(feeder.clock);
    for (const auto& s : shard_list) add(s->clock);
    std::stable_sort(profile.begin(), profile.end(),
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
  for (auto& s : shard_list) partials.push_back(std::move(s->partial));

  if (perf != nullptr) {
    *perf = FleetPerf{};
    perf->shards = shards;
    perf->router_busy_s = router_clock.busy_s;
    perf->router_stall_s = router_clock.blocked_s;
    perf->feeder_busy_s = feeder.clock.busy_s;
    perf->feeder_stall_s = feeder.clock.blocked_s;
    for (std::uint32_t w = 0; w < shards; ++w) {
      const Shard& s = *shard_list[w];
      perf->per_shard.push_back(ShardPerf{w, s.submissions, s.batches,
                                          partials[w + 1].events,
                                          s.handoff.high_water});
      perf->worker_busy_s.push_back(s.clock.busy_s);
      perf->worker_wait_s.push_back(s.clock.blocked_s);
    }
  }
  return partials;
}

} // namespace spindown::sys
