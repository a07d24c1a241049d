// io_scheduler.h — the disk's request queue: one value type, one pick rule.
//
// A Disk holds one IoQueue.  It pushes every accepted request into it and,
// whenever the head is free, pops the next *batch* — one or more jobs that
// share a single positioning phase.  Which job goes next is the queue's
// discipline, fixed at construction:
//
//   * kFcfs  — arrival order, constant avg positioning cost.  The default;
//              the seed simulator's queue.
//   * kSstf  — shortest seek time first: the LBA nearest the head.
//   * kScan  — the elevator (LOOK variant): sweeps in one direction, serving
//              requests in LBA order, and reverses at the last pending
//              request.
//   * kClook — circular LOOK: sweeps upward only; on reaching the top it
//              jumps back to the lowest pending LBA.
//   * kBatch — C-LOOK plus coalescing: LBA-adjacent (or near-adjacent)
//              extents are merged into one batch and billed a single
//              positioning phase.  kClook is kBatch with batches of one.
//
// sys::SchedulerSpec parses and prints the discipline's name.
//
// Geometry: a job's location is an LBA extent (start block + length, 512-byte
// blocks, per-disk address space; see workload::layout_extents).  Geometry-
// aware disciplines are billed seek(distance) + rotation per positioning
// phase via DiskParams::seek_time; FCFS keeps the legacy constant
// avg_seek + avg_rotation so Table-1/-2 experiments reproduce exactly.
//
// Storage is one grow-only vector, so once the queue has reached its peak
// length push and pop allocate nothing (tests/disk/alloc_count_test.cpp
// checks every discipline).  FCFS pops at a moving front index, amortised
// O(1).  The other disciplines scan the pool, break key ties by submission
// sequence, and remove their pick by moving the last job into its slot, so
// the pool's order never decides anything.
#pragma once

#include <cstdint>
#include <vector>

#include "util/units.h"

namespace spindown::disk {

/// The service disciplines (see the file comment).
enum class Discipline { kFcfs, kSstf, kScan, kClook, kBatch };

/// One queued request as the queue sees it.
struct IoJob {
  std::uint64_t request_id = 0;
  util::Bytes bytes = 0;
  double arrival = 0.0;     ///< submission time (for FCFS order / reporting)
  std::uint64_t lba = 0;    ///< first block of the file's extent on this disk
  std::uint64_t blocks = 0; ///< extent length in util::kBlockBytes blocks
  std::uint64_t seq = 0;    ///< submission sequence; deterministic tie-break
  /// Background work (orchestration destage): serviced like any job — it
  /// occupies the head and burns energy — but excluded from the foreground
  /// served/queued/in-service accounting and the response statistics.
  bool background = false;
};

/// The request queue of one disk.  Single-threaded, driven by one Disk.
class IoQueue {
public:
  /// `max_batch` and `coalesce_gap_blocks` apply to kBatch: after the sweep's
  /// next job, any pending extent starting within `coalesce_gap_blocks`
  /// after the batch's end joins it, up to `max_batch` jobs.  kClook is a
  /// batch of one whatever `max_batch` says.
  explicit IoQueue(Discipline kind = Discipline::kFcfs,
                   std::uint32_t max_batch = 16,
                   std::uint64_t coalesce_gap_blocks = 2048);

  /// Accept a request into the queue.
  void push(const IoJob& job) { jobs_.push_back(job); }

  /// Number of jobs waiting (not yet handed out via pop_batch).
  std::size_t size() const { return jobs_.size() - front_; }
  bool empty() const { return size() == 0; }

  /// Remove the next batch, appended to `out` in transfer order.  The head
  /// is currently at `head_lba`.  Precondition: !empty().
  void pop_batch(std::uint64_t head_lba, std::vector<IoJob>& out);

  const Discipline discipline;
  /// Geometry-aware disciplines are billed DiskParams::seek_time(distance);
  /// FCFS keeps the legacy constant positioning cost.
  const bool geometry_aware;

private:
  IoJob take(std::size_t i);

  const std::uint32_t max_batch_;
  const std::uint64_t coalesce_gap_blocks_;
  std::vector<IoJob> jobs_;
  std::size_t front_ = 0; ///< FCFS: jobs_[front_..] wait; always 0 otherwise
  bool upward_ = true;    ///< kScan: the current sweep direction
};

} // namespace spindown::disk
