// io_scheduler.h — pluggable service disciplines for the disk's request
// queue.
//
// The seed simulator served a strict FCFS queue with a constant positioning
// cost, so the service order and the seek cost were frozen — a whole family
// of scenarios (scheduling discipline × spin-down policy) was unreachable.
// This interface makes the discipline a component: the Disk pushes every
// accepted request into its scheduler and, whenever the head is free, asks
// for the next *batch* — one or more jobs that share a single positioning
// phase.  Disciplines:
//
//   * FcfsScheduler  — arrival order, constant avg positioning cost.  The
//                      default; bit-compatible with the pre-scheduler disk.
//   * SstfScheduler  — shortest seek time first: nearest LBA to the head.
//   * ScanScheduler  — the elevator (LOOK variant): sweeps in one direction,
//                      serving requests in LBA order, and reverses at the
//                      last pending request.
//   * BatchScheduler — circular LOOK (sweeps upward only; on reaching the
//                      top it jumps back to the lowest pending LBA) plus
//                      coalescing: LBA-adjacent (or near-adjacent) extents
//                      are merged into one batch and billed a single
//                      positioning phase.  A batch of one is plain C-LOOK.
//
// sys::SchedulerSpec names every discipline and builds it.
//
// Geometry: a job's location is an LBA extent (start block + length, 512-byte
// blocks, per-disk address space; see workload::layout_extents).  Geometry-
// aware disciplines are billed seek(distance) + rotation per positioning
// phase via DiskParams::seek_time; FCFS keeps the legacy constant
// avg_seek + avg_rotation so Table-1/-2 experiments reproduce exactly.
//
// All schedulers are allocation-free in steady state (grow-only storage):
// the Disk's submit → complete cycle stays on the DES kernel's zero-alloc
// hot path (asserted by tests/des/alloc_count_test.cpp).
#pragma once

#include <cstdint>
#include <vector>

#include "util/units.h"

namespace spindown::disk {

/// One queued request as the scheduler sees it.
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

/// Service-discipline interface.  Single-threaded, driven by one Disk.
class IoScheduler {
public:
  virtual ~IoScheduler() = default;

  /// Accept a request into the queue.
  virtual void push(const IoJob& job) = 0;

  /// Number of jobs waiting (not yet handed out via pop_batch).
  virtual std::size_t size() const = 0;
  bool empty() const { return size() == 0; }

  /// Remove the next batch — one or more jobs served with a single
  /// positioning phase, appended to `out` in transfer order.  The head is
  /// currently at `head_lba`.  Precondition: !empty().
  virtual void pop_batch(std::uint64_t head_lba, std::vector<IoJob>& out) = 0;

  /// Geometry-aware disciplines are billed DiskParams::seek_time(distance);
  /// FCFS returns false and keeps the legacy constant positioning cost.
  virtual bool geometry_aware() const = 0;
};

/// Arrival order; constant positioning cost (the seed behavior).
class FcfsScheduler final : public IoScheduler {
public:
  void push(const IoJob& job) override;
  std::size_t size() const override { return count_; }
  void pop_batch(std::uint64_t head_lba, std::vector<IoJob>& out) override;
  bool geometry_aware() const override { return false; }

private:
  // Grow-only ring buffer: steady-state push/pop never allocates (a deque
  // would allocate a fresh block every ~page of throughput).
  std::vector<IoJob> ring_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

/// Shortest seek time first: the job whose LBA is nearest the head.
class SstfScheduler final : public IoScheduler {
public:
  void push(const IoJob& job) override { jobs_.push_back(job); }
  std::size_t size() const override { return jobs_.size(); }
  void pop_batch(std::uint64_t head_lba, std::vector<IoJob>& out) override;
  bool geometry_aware() const override { return true; }

private:
  std::vector<IoJob> jobs_;
};

/// Elevator (LOOK): serve in LBA order along the current sweep direction,
/// reversing when no pending request remains ahead of the head.
class ScanScheduler final : public IoScheduler {
public:
  void push(const IoJob& job) override { jobs_.push_back(job); }
  std::size_t size() const override { return jobs_.size(); }
  void pop_batch(std::uint64_t head_lba, std::vector<IoJob>& out) override;
  bool geometry_aware() const override { return true; }

private:
  std::vector<IoJob> jobs_;
  bool upward_ = true;
};

/// Circular LOOK (sweep upward; wrap to the lowest pending LBA at the top)
/// with coalescing: after picking the sweep's next job, any pending extent
/// starting within `coalesce_gap_blocks` after the batch's end is appended
/// (up to `max_batch` jobs), so adjacent extents pay one positioning phase
/// between them.  max_batch = 1 is plain C-LOOK.
class BatchScheduler final : public IoScheduler {
public:
  explicit BatchScheduler(std::uint32_t max_batch = 16,
                          std::uint64_t coalesce_gap_blocks = 2048);
  void push(const IoJob& job) override { jobs_.push_back(job); }
  std::size_t size() const override { return jobs_.size(); }
  void pop_batch(std::uint64_t head_lba, std::vector<IoJob>& out) override;
  bool geometry_aware() const override { return true; }

private:
  std::vector<IoJob> jobs_;
  std::uint32_t max_batch_;
  std::uint64_t coalesce_gap_blocks_;
};

} // namespace spindown::disk
