// offload.h — write off-loading with deferred destage (fleet orchestration,
// mechanism 2).
//
// A write aimed at a sleeping data disk would force a spin-up for a request
// the client never waits on the placement of.  Instead, a small tier of
// always-on *log disks* (appended after the data disks, spin policy
// "never") absorbs the write: the foreground service happens on the log
// disk, a PendingWrite records the debt, and the buffered bytes are
// *destaged* to the home disk later as background I/O — either when the
// home disk next serves a foreground request (it is spinning anyway) or
// when the destage deadline expires, whichever comes first.  Until the
// destage lands, reads of an off-loaded file are routed to the log copy, so
// the freshest bytes are always the ones served.
//
// Placement on the log tier is §1.1's write rule — write into an already
// spinning disk, best fit — and every log disk is always spinning, so it is
// plain best-fit over free buffer space (ties to the lowest log disk).
// Destaging returns the bytes.  Log-disk LBAs are handed out by a per-disk
// log-structured cursor that wraps at the disk's capacity.
//
// Determinism: deadlines are min(t + deadline_s, horizon), so with arrivals
// fed in non-decreasing t the pending queue is created in non-decreasing
// deadline order and drain_due() is a pop from the head — no ordering data
// structure, no ties to break.  The horizon cap guarantees every pending
// write destages inside the measurement window.
//
// Memory: writes are numbered by absorb order, and the queue keeps only the
// suffix from the oldest write that may still be live.  Once the head has
// passed half of it, the settled prefix is dropped, so after each
// drain_due(t) the queue holds at most twice the writes absorbed after
// t - deadline_s (plus a 64-write floor), not every write of the run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "util/prefetch.h"
#include "util/units.h"
#include "workload/catalog.h"

namespace spindown::orch {

/// One buffered write: the debt owed to data disk `target`.
struct PendingWrite {
  double deadline = 0.0;         ///< latest destage time (<= horizon)
  std::uint32_t target = 0;      ///< home data disk
  std::uint32_t log_disk = 0;    ///< global id of the absorbing log disk
  workload::FileId file = 0;
  std::uint64_t request_id = 0;  ///< the foreground write's id
  util::Bytes bytes = 0;
  std::uint64_t target_lba = 0;  ///< home extent (destage destination)
  std::uint64_t log_lba = 0;     ///< log-cursor extent (reads until destage)
};

class WriteOffload {
public:
  /// Log disks occupy global ids [data_disks, data_disks + log_disks);
  /// each has `log_capacity` bytes of buffer space.  `horizon_s` caps every
  /// deadline so the tier drains inside the measurement window.
  WriteOffload(std::uint32_t data_disks, std::uint32_t log_disks,
               util::Bytes log_capacity, double deadline_s, double horizon_s);

  struct LogCopy {
    std::uint32_t log_disk = 0; ///< global disk id
    std::uint64_t log_lba = 0;
  };

  /// Buffer a write aimed at sleeping data disk `target`.  Returns the log
  /// placement, or nullopt when no log disk has room (the caller then
  /// writes through to the home disk).
  std::optional<LogCopy> absorb(double t, std::uint64_t request_id,
                                workload::FileId file, util::Bytes bytes,
                                std::uint64_t blocks,
                                std::uint64_t target_lba,
                                std::uint32_t target);

  /// Freshest buffered copy of `file`, if one is still pending.
  std::optional<LogCopy> log_copy(workload::FileId file) const;

  /// O(1): a live-debt count per data disk.
  bool has_pending(std::uint32_t target) const;

  /// Move every live pending write owed to `target` into `out` (in
  /// buffering order) and settle the debt (release log space, forget the
  /// log copies).
  void drain_disk(std::uint32_t target, std::vector<PendingWrite>& out);

  /// As drain_disk, but for every pending write whose deadline is <= `t`,
  /// fleet-wide, in deadline order.
  void drain_due(double t, std::vector<PendingWrite>& out);

  /// The deadline of the oldest write that may still be live, or +inf:
  /// deadlines never decrease in absorb order, so it bounds every live
  /// deadline from below, and drain_due(t) drains nothing for any earlier t.
  double next_deadline() const {
    return head_ - base_ < pending_.size()
               ? pending_[head_ - base_].deadline
               : std::numeric_limits<double>::infinity();
  }

  /// Hint that log_copy(file) comes soon.
  void prefetch(workload::FileId file) const {
    if (file < latest_.size()) util::prefetch(latest_.data() + file);
  }

  std::uint64_t buffered() const { return buffered_; }
  std::uint64_t destaged() const { return destaged_; }
  std::uint64_t live() const { return buffered_ - destaged_; }
  /// Pending writes still held in memory, settled ones included.
  std::size_t retained() const { return pending_.size(); }

private:
  static constexpr std::uint32_t kNil =
      std::numeric_limits<std::uint32_t>::max();

  std::optional<std::uint32_t> place(util::Bytes bytes);
  void settle(std::uint32_t seq, std::vector<PendingWrite>& out);
  void drop_settled_prefix();

  util::Bytes log_capacity_;
  std::vector<util::Bytes> log_used_; ///< per log disk (*local* id), bytes
  std::uint32_t data_disks_;
  double deadline_s_;
  double horizon_s_;
  std::uint64_t capacity_blocks_;

  /// Writes by sequence number (absorb order): pending_[s - base_] holds
  /// write s.  Every write below base_ is settled.
  std::vector<PendingWrite> pending_;
  std::vector<bool> done_; ///< parallel to pending_
  std::uint32_t base_ = 0;
  std::uint32_t head_ = 0; ///< oldest sequence number that may be live
  /// Per data disk: sequence numbers buffered since its last drain (settled
  /// ones included until the list is next cleared; none is below base_,
  /// drop_settled_prefix trims them) and its live-debt count.
  std::vector<std::vector<std::uint32_t>> by_disk_;
  std::vector<std::uint32_t> live_by_disk_;
  /// FileId -> sequence number of its newest live pending write, kNil if
  /// none; dense like the catalog's ids, grown to the largest file absorbed.
  std::vector<std::uint32_t> latest_;
  std::vector<std::uint64_t> log_cursor_; ///< per log disk, blocks
  std::uint64_t buffered_ = 0;
  std::uint64_t destaged_ = 0;
};

} // namespace spindown::orch
