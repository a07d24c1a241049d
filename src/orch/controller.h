// controller.h — fleet power orchestration behind one interface.
//
// The per-disk spin-down policies (src/disk/, src/adapt/) are greedy local
// actors: each spindle watches its own idle gaps and pays its own spin-ups.
// The orchestration layer adds the coordination the paper's trade-off
// analysis calls for at farm scale — *which* disk serves a request is a
// fleet decision, and making it power-aware buys sleep time the local
// policies cannot create on their own.  Two mechanisms compose behind
// FleetController:
//
//   * replica-aware read redirection — with `replicas=k`, each file has k
//     copies (replica r of file f on disk (mapping[f] + r*stride) % D,
//     stride = max(1, D/k)); a read routes to whichever replica the
//     controller predicts is spun up, deterministic tie-break by lowest
//     disk id, so a cold replica's disk can stay asleep;
//   * write off-loading — writes aimed at a sleeping disk detour to the
//     always-on log tier and destage later (orch/offload.h).
//
// The controller is a *deterministic stream rewriter*: it lives in the
// fleet router (src/sys/fleet.cpp), sees every post-cache arrival in global
// arrival order, and rewrites each into one foreground submission plus any
// triggered background destages.  It never reads simulator state — spin
// predictions come from its own busy_until service model — so its output
// is a pure function of the arrival stream and the run stays bit-identical
// at any shard count.  Decisions are traced onto the router track
// (obs::kSpanRedirect / kPolicyOffload / kPolicyDestage).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "obs/trace.h"
#include "orch/offload.h"
#include "util/units.h"
#include "workload/catalog.h"

namespace spindown::orch {

/// Which mechanisms are live and their knobs — a plain mirror of the
/// scenario-level sys::OrchSpec (src/orch/ sits below src/sys/ and cannot
/// include it), plus the fleet geometry the controller needs.
struct Config {
  bool redirect = false;
  bool offload = false;
  bool budget = false; ///< unread: exists only for perfbench/bench.cpp
  std::uint32_t data_disks = 0; ///< disks [0, data_disks) hold the catalog
  std::uint32_t log_disks = 0;  ///< always-on tier at [data_disks, ...)
  std::uint32_t replicas = 1;   ///< k-way replication degree
  double destage_deadline_s = 600.0;
  double write_fraction = 0.2;  ///< share of requests classified as writes
  double slo_p99_s = 5.0;       ///< unread: only for perfbench/bench.cpp
  double horizon_s = 0.0;       ///< measurement window (caps deadlines)
  util::Bytes disk_capacity = 0; ///< per-disk bytes (log-tier buffer space)
  double mean_request_bytes = 0.0; ///< unread: only for perfbench/bench.cpp
};

/// The controller's model of one disk's service: enough physics to predict
/// "is this disk spinning" and "when would it finish this request" without
/// touching simulator state.  sleep_after_s is the per-disk policy's
/// predicted idle-to-spin-down delay (the break-even threshold for the
/// default policy, +inf for `never`).
struct ServiceModel {
  double position_s = 0.0;   ///< seek + rotation per request
  double transfer_bps = 1.0; ///< sustained transfer rate
  double spinup_s = 0.0;     ///< standby -> active latency
  double sleep_after_s = 0.0; ///< idle time before the policy spins down

  double service(util::Bytes bytes) const {
    return position_s + static_cast<double>(bytes) / transfer_bps;
  }
};

/// High bit tag on background (destage) request ids, keeping them disjoint
/// from every foreground id the workload generators hand out.
inline constexpr std::uint64_t kBackgroundIdBit = 1ULL << 63;

/// One rewritten submission the router ships to a shard.  `t` values are
/// non-decreasing across everything one controller emits, which is what
/// lets the router append them to the per-shard batches directly.
struct Submission {
  double t = 0.0;
  std::uint64_t request_id = 0;
  util::Bytes bytes = 0;
  std::uint64_t lba = 0;
  std::uint64_t blocks = 0;
  std::uint32_t disk = 0;
  bool background = false; ///< destage: excluded from foreground stats
};

/// Busy-horizon model of every disk in the fleet: busy_until[d] advances
/// with each routed submission, and a disk is predicted asleep once it has
/// been idle longer than the policy's sleep_after_s.  Log-tier disks
/// (id >= data_disks) never sleep.
class DiskModel {
public:
  DiskModel(std::uint32_t disks, std::uint32_t data_disks,
            const ServiceModel& model)
      : model_(model), busy_until_(disks, 0.0), data_disks_(data_disks) {}

  bool awake(std::uint32_t disk, double t) const {
    return disk >= data_disks_ ||
           t <= busy_until_[disk] + model_.sleep_after_s;
  }
  void on_submit(std::uint32_t disk, double t, util::Bytes bytes) {
    const double start = awake(disk, t)
                             ? std::max(busy_until_[disk], t)
                             : t + model_.spinup_s;
    busy_until_[disk] = start + model_.service(bytes);
  }

private:
  ServiceModel model_;
  std::vector<double> busy_until_;
  std::uint32_t data_disks_;
};

class FleetController {
public:
  /// `primary_mapping`/`primary_extents` are the scenario's replica-0
  /// layout (file id -> disk / extent); the controller derives the replica
  /// copies itself, continuing each disk's LBA cursor *after* the replica-0
  /// layout so the primary extents are untouched.  `trace` may be null.
  FleetController(const Config& config, const ServiceModel& model,
                  const std::vector<std::uint32_t>& primary_mapping,
                  const std::vector<workload::FileExtent>& primary_extents,
                  obs::TraceBuffer* trace);

  /// Rewrite one post-cache arrival (non-decreasing t) into submissions:
  /// exactly one foreground submission at time t, plus any background
  /// destages it triggers (also at t, appended after it).
  void route(double t, std::uint64_t id, const workload::FileInfo& file,
             std::vector<Submission>& out);

  /// Emit background destages for every buffered write whose deadline has
  /// passed (each at its own deadline time).  Call with the window frontier
  /// before routing an arrival at t >= frontier, and once with the horizon
  /// after the stream ends, so submission times stay globally monotone.
  void flush_deadlines(double t, std::vector<Submission>& out);

  /// Deterministic read/write classification: a splitmix64 hash of the
  /// request id against `fraction` — no RNG draws, so arrival streams are
  /// bit-identical with orchestration on or off.
  static bool classify_write(std::uint64_t id, double fraction);

  /// Replica disks of `file` (replica 0 = the primary; deduplicated, so
  /// size may be < k when the copies wrap onto the same disk).
  std::vector<std::uint32_t> replica_disks(workload::FileId file) const;

  std::uint64_t redirects() const { return redirects_; }
  std::uint64_t offloads() const { return offloads_; }
  std::uint64_t destages() const { return destages_; }

private:
  struct Choice {
    std::uint32_t disk = 0;
    std::uint64_t lba = 0;
    std::uint64_t blocks = 0;
  };

  Choice pick_read_target(double t, const workload::FileInfo& file);
  void submit_foreground(double t, std::uint64_t id, util::Bytes bytes,
                         const Choice& c, std::vector<Submission>& out);
  void trigger_destage(double t, std::uint64_t id, std::uint32_t disk,
                       std::vector<Submission>& out);
  void emit_destage_subs(double t, const std::vector<PendingWrite>& batch,
                         std::vector<Submission>& out);

  Config cfg_;
  DiskModel model_;
  const std::vector<std::uint32_t>& mapping_;
  const std::vector<workload::FileExtent>& extents_;
  obs::TraceBuffer* trace_;
  std::unique_ptr<WriteOffload> offload_;
  // Replica copies r >= 1, flattened per file: replica_at_[offset_[f] .. ).
  std::vector<std::uint32_t> offset_;
  std::vector<std::uint32_t> replica_disk_;
  std::vector<workload::FileExtent> replica_extent_;
  std::vector<PendingWrite> drained_; ///< scratch, reused per call
  std::uint64_t redirects_ = 0;
  std::uint64_t offloads_ = 0;
  std::uint64_t destages_ = 0;
};

} // namespace spindown::orch
