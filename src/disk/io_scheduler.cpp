#include "disk/io_scheduler.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace spindown::disk {

namespace {

/// Deterministic ordering helper: prefer the smaller key, break ties by
/// submission sequence (earlier wins) so equal-LBA jobs serve in FIFO order.
struct Best {
  std::uint64_t key = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t seq = std::numeric_limits<std::uint64_t>::max();
  std::size_t index = 0;
  bool found = false;

  void offer(std::uint64_t k, const IoJob& job, std::size_t i) {
    if (!found || k < key || (k == key && job.seq < seq)) {
      key = k;
      seq = job.seq;
      index = i;
      found = true;
    }
  }
};

std::uint64_t distance(std::uint64_t a, std::uint64_t b) {
  return a > b ? a - b : b - a;
}

} // namespace

IoQueue::IoQueue(Discipline kind, std::uint32_t max_batch,
                 std::uint64_t coalesce_gap_blocks)
    : discipline(kind),
      geometry_aware(kind != Discipline::kFcfs),
      max_batch_(kind == Discipline::kClook
                     ? 1
                     : std::max<std::uint32_t>(1, max_batch)),
      coalesce_gap_blocks_(coalesce_gap_blocks) {}

/// Remove jobs_[i] without shifting the tail (order inside the pool carries
/// no meaning — every pick scans the whole pool and tie-breaks by seq).
IoJob IoQueue::take(std::size_t i) {
  IoJob job = jobs_[i];
  jobs_[i] = jobs_.back();
  jobs_.pop_back();
  return job;
}

void IoQueue::pop_batch(std::uint64_t head_lba, std::vector<IoJob>& out) {
  assert(!empty());
  switch (discipline) {
    case Discipline::kFcfs:
      out.push_back(jobs_[front_++]);
      // Drop the served prefix once it fills half the storage: each job is
      // moved at most once per pop before it, and a drained queue clears.
      if (2 * front_ >= jobs_.size()) {
        jobs_.erase(jobs_.begin(),
                    jobs_.begin() + static_cast<std::ptrdiff_t>(front_));
        front_ = 0;
      }
      return;
    case Discipline::kSstf: {
      Best best;
      for (std::size_t i = 0; i < jobs_.size(); ++i) {
        best.offer(distance(jobs_[i].lba, head_lba), jobs_[i], i);
      }
      out.push_back(take(best.index));
      return;
    }
    case Discipline::kScan:
      for (int attempt = 0; attempt < 2; ++attempt) {
        Best best;
        for (std::size_t i = 0; i < jobs_.size(); ++i) {
          const auto lba = jobs_[i].lba;
          if (upward_ && lba >= head_lba) {
            best.offer(lba - head_lba, jobs_[i], i);
          } else if (!upward_ && lba <= head_lba) {
            best.offer(head_lba - lba, jobs_[i], i);
          }
        }
        if (best.found) {
          out.push_back(take(best.index));
          return;
        }
        upward_ = !upward_; // LOOK: reverse at the last pending request
      }
      assert(false && "unreachable: a non-empty pool always matches one sweep");
      return;
    case Discipline::kClook:
    case Discipline::kBatch:
      break;
  }

  // C-LOOK, coalescing up to max_batch_ jobs.  Seed the batch with the
  // sweep's next job: the nearest job at or past the head, wrapping to the
  // globally lowest LBA when nothing lies ahead.
  Best ahead;
  Best lowest;
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    const auto lba = jobs_[i].lba;
    if (lba >= head_lba) ahead.offer(lba - head_lba, jobs_[i], i);
    lowest.offer(lba, jobs_[i], i);
  }
  out.push_back(take(ahead.found ? ahead.index : lowest.index));
  std::uint64_t end = out.back().lba + out.back().blocks;

  // Coalesce: repeatedly absorb the nearest pending extent that starts
  // within the gap window after the batch's end.  Each absorbed job rides
  // the same positioning phase (the head is already streaming past it).
  for (std::uint32_t taken = 1; taken < max_batch_ && !jobs_.empty();
       ++taken) {
    Best next;
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
      const auto lba = jobs_[i].lba;
      if (lba >= end && lba - end <= coalesce_gap_blocks_) {
        next.offer(lba - end, jobs_[i], i);
      }
    }
    if (!next.found) break;
    out.push_back(take(next.index));
    end = out.back().lba + out.back().blocks;
  }
}

} // namespace spindown::disk
