// disk.h — the simulated disk: power-state machine + request queue.
//
// A Disk is a discrete-event actor built from two components:
//
//   * the Figure-1 power-state machine (idle/positioning/transfer/
//     spin-down/standby/spin-up, encoded in power.h) — unchanged from the
//     paper's model, and
//   * an IoQueue (io_scheduler.h), held by value, whose discipline decides
//     the service order and the positioning cost.  The default FCFS queue
//     serves in arrival order with the constant avg-seek + avg-rotation
//     cost, exactly reproducing the seed simulator; geometry-aware
//     disciplines (SSTF, SCAN, C-LOOK, batching) order by LBA and are
//     billed DiskParams::seek_time(head travel) + rotation per positioning
//     phase.
//
// Each service batch has two billed phases: positioning (at seek power) and
// one transfer per batch member (at active power, back-to-back — a coalesced
// batch pays a single positioning phase).  When the queue drains the disk
// goes idle and asks its SpinDownPolicy for a timeout; once the timeout
// passes it spins down (10 s) into standby (0.8 W).  A request arriving at
// a standby disk triggers a spin-up (15 s) and is served after it; a
// request arriving mid-spin-down waits for the spin-down to complete and
// then for the spin-up (the head cannot abort a retraction).
//
// Lazy timeline.  Every transition is fixed the moment its phase begins:
// when a batch starts positioning, its transfer start is known; when a
// transfer starts, its completion is known; when the policy draws its
// timeout at idle start, the spin-down and standby times are known; when a
// spin-up starts, its end is known.  So the disk needs no event calendar.
// It keeps one due time, that of the current phase's end, and settle(t)
// applies every transition due by `t` at its own timestamp and in the order
// the state machine takes them: transfer start, transfer completion (which
// books the response, then starts the next batch member, the next batch or
// the idle period), spin-down, standby entry (and the wake of a spin-down
// that requests arrived during), spin-up end.  It emits the
// power/policy/span trace events an eager machine would.  settle() runs at
// the top of submit(), in state() and metrics(), and from the metrics
// sampler, so every reader sees the settled state.  Tie rule: a transition
// due at t resolves before anything else the disk does at t — an arrival
// exactly at a completion finds the next request already started, an
// arrival at a sleep time finds the disk spinning down, and a gauge sampled
// at a completion reads the state after it.
//
// Every state residency is integrated into a time-weighted ledger, so energy
// is exact under the piecewise-constant power model.  The disk also keeps
// its own response books: each foreground completion is folded into a
// Welford accumulator (DiskMetrics::response) and, when one is attached,
// the owner's response histogram.  A caller that needs per-request times
// reads the kSpanComplete events of a trace buffer.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "disk/io_scheduler.h"
#include "obs/trace.h"
#include "disk/params.h"
#include "disk/power.h"
#include "disk/spin_policy.h"
#include "stats/histogram.h"
#include "stats/time_weighted.h"
#include "stats/welford.h"
#include "util/rng.h"

namespace spindown::disk {

/// Aggregate per-disk counters; energy follows from the state-time ledger.
/// `queued`/`in_service` snapshot the request population at metrics() time,
/// so a horizon snapshot accounts for every submitted request exactly once:
/// submitted == served + in_service + queued.
struct DiskMetrics {
  /// Which disk these counters belong to.  Farm aggregation folds metrics
  /// in disk-id order, so the result is independent of which shard
  /// produced each record.
  std::uint32_t disk_id = 0;
  std::array<double, kPowerStateCount> state_time{};
  std::uint64_t spin_ups = 0;
  std::uint64_t spin_downs = 0;
  std::uint64_t served = 0;
  util::Bytes bytes_served = 0;
  std::uint64_t queued = 0;       ///< waiting in the queue at snapshot
  std::uint64_t in_service = 0;   ///< in the active batch (positioning or
                                  ///< transferring) at snapshot
  /// Orchestration destage (background) jobs, kept out of the foreground
  /// counters above so `submitted == served + in_service + queued` and the
  /// run-level horizon identity hold over foreground requests alone.
  std::uint64_t destage_served = 0;  ///< background jobs completed
  std::uint64_t destage_pending = 0; ///< background queued or in the active
                                     ///< batch at snapshot
  std::uint64_t positionings = 0; ///< positioning phases billed (a coalesced
                                  ///< batch counts one for several requests)
  /// Completed idle-period durations (full time from going idle to the next
  /// arrival, through any spin-down/standby residency), log-binned from 1 ms
  /// to ~28 h.  Exposes the idle structure the spin-down economics turn on —
  /// and the signal the adaptive policies (src/adapt/) learn from.
  stats::LogHistogram idle_periods{kIdleHistLo, kIdleHistHi, kIdleHistBins};
  /// Response-time moments of every foreground request this disk completed
  /// by the snapshot time.  The run driver's horizon snapshot overwrites it
  /// after the drain with Disk::response(), so it also counts the services
  /// that finish past the horizon.
  stats::Welford response;
  /// Integrated energy over [0, snapshot time] under the disk's own power
  /// model, and the energy the same window/busy-time would have cost with
  /// power management off (the Figure 5 normalizer, per disk).  Stored at
  /// metrics() time — where DiskParams is in scope — so farm aggregation
  /// and RunResult::merge need no params.
  util::Joules energy_j = 0.0;
  util::Joules always_on_j = 0.0;

  static constexpr double kIdleHistLo = 1e-3;
  static constexpr double kIdleHistHi = 1e5;
  static constexpr std::size_t kIdleHistBins = 80;

  double time_in(PowerState s) const {
    return state_time[static_cast<std::size_t>(s)];
  }
  double busy_time() const {
    return time_in(PowerState::kPositioning) + time_in(PowerState::kTransfer);
  }
  /// Integrated energy under the device's power model.
  util::Joules energy(const DiskParams& p) const;
};

class Disk {
public:
  /// The disk starts spun up and idle at t = 0, as in the paper's runs.
  /// `queue` defaults to FCFS — the seed-compatible discipline.
  Disk(std::uint32_t id, DiskParams params,
       std::unique_ptr<SpinDownPolicy> policy, util::Rng rng,
       IoQueue queue = IoQueue{});

  Disk(const Disk&) = delete;
  Disk& operator=(const Disk&) = delete;

  /// Submit a whole-file read arriving at `t`, after settling to `t`.
  /// `lba` is the first block of the file's extent in this disk's
  /// logical-block space (the router computes it from the catalog layout);
  /// the extent is util::blocks_of(bytes) long.  The request completes
  /// from a later settle(), which books its response.  `background` marks
  /// orchestration destage work: it is serviced (and billed energy) like
  /// any job but stays out of the foreground served/queued/in-service
  /// counters, the response statistics, and the spin-down policy's
  /// completion signal.  Throws std::invalid_argument when `t` is earlier
  /// than the time the disk is settled to (or NaN).
  void submit(double t, std::uint64_t request_id, util::Bytes bytes,
              std::uint64_t lba = 0, bool background = false);

  /// Attach a trace sink (null disables).  The buffer must be single-writer
  /// from the thread that drives this disk and outlive the disk's activity; the
  /// disk emits power transitions, request-lifecycle spans, and policy
  /// decisions on track `id()` subject to the buffer's kind mask.
  void set_trace(obs::TraceBuffer* trace) { trace_ = trace; }

  /// Attach a response-time histogram (null detaches).  Every foreground
  /// completion adds its response to it; it must outlive the disk's
  /// activity, and several disks driven from one thread may share it.
  void set_response_histogram(stats::LinearHistogram* hist) {
    response_hist_ = hist;
  }

  /// Apply every transition due by `t`, each at its own time (see the file
  /// comment).  A `t` at or before the settled time changes nothing.
  void settle(double t);

  /// After the last submission: drain the queue and play the trailing idle
  /// chain out (settle to +infinity); return when the disk came to rest,
  /// the time of its last power-state change.
  double settle_all();

  std::uint32_t id() const { return id_; }
  const DiskParams& params() const { return params_; }
  /// Power state at `t`, settled.
  PowerState state(double t) {
    settle(t);
    return state_;
  }
  std::size_t queue_length() const { return queue_.size(); }
  /// Requests in the active batch (cheap gauge taps for the sampler).
  std::size_t in_service_count() const { return batch_.size() - batch_pos_; }
  std::uint64_t served_count() const { return served_; }
  /// Response-time moments of every foreground request completed so far.
  const stats::Welford& response() const { return response_; }
  /// Discrete events resolved so far: one per completed transfer, one per
  /// spin-up end, one per spin-down that ends with requests waiting.  An
  /// engine statistic (RunResult::events), not a physical result.
  std::uint64_t events() const { return events_; }
  /// Current head position (first block past the last transferred extent).
  std::uint64_t head_lba() const { return head_lba_; }

  /// Snapshot of the counters, settled and with the ledger flushed to
  /// `now`.
  DiskMetrics metrics(double now);

private:
  void enter(PowerState next, double t);
  double positioning_time(std::uint64_t target_lba) const;
  void apply_due();
  void start_service(double t);
  void trace_transfer(double t);
  void finish_transfer(double t);
  void go_idle(double t);
  void arm_idle_timer(double t);
  void begin_spin_down(double t);
  void begin_spin_up(double t);

  std::uint32_t id_;
  DiskParams params_;
  std::unique_ptr<SpinDownPolicy> policy_;
  util::Rng rng_;
  IoQueue queue_;

  PowerState state_ = PowerState::kIdle;
  stats::TimeWeighted<PowerState, kPowerStateCount> ledger_;
  /// The batch currently owning the head: batch_[batch_pos_] is being
  /// transferred (or about to be, during positioning); earlier entries are
  /// complete.  Storage is reused across batches (grow-only).
  std::vector<IoJob> batch_;
  std::size_t batch_pos_ = 0;
  std::uint64_t head_lba_ = 0;
  double capacity_blocks_ = 1.0;
  std::uint64_t submit_seq_ = 0;
  /// The lazy timeline: the current phase ends at due_ (+infinity: never —
  /// standby, or idle under a policy that does not spin down), and the
  /// disk is settled up to clock_.
  double due_ = 0.0;
  double clock_ = 0.0;
  double idle_since_ = 0.0;
  /// True from go_idle() (or construction) until the arrival that ends the
  /// period; an arrival mid-spin-down/standby closes the same period, so
  /// the flag distinguishes "first arrival after idling" from "arrival
  /// during a spin-up another request already triggered".
  bool idle_period_open_ = true;
  bool idle_spun_down_ = false;
  double service_start_ = 0.0;

  obs::TraceBuffer* trace_ = nullptr;
  stats::LinearHistogram* response_hist_ = nullptr;
  stats::Welford response_;
  std::uint64_t spin_ups_ = 0;
  std::uint64_t spin_downs_ = 0;
  std::uint64_t served_ = 0;
  std::uint64_t events_ = 0;
  std::uint64_t destage_served_ = 0;
  /// Background population split by location (queue vs active batch),
  /// maintained so metrics() can report foreground queued/in_service
  /// without scanning the queue.
  std::uint64_t bg_in_queue_ = 0;
  std::uint64_t bg_in_batch_ = 0;
  std::uint64_t positionings_ = 0;
  util::Bytes bytes_served_ = 0;
  stats::LogHistogram idle_periods_{DiskMetrics::kIdleHistLo,
                                    DiskMetrics::kIdleHistHi,
                                    DiskMetrics::kIdleHistBins};
};

} // namespace spindown::disk
