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

/// Remove jobs[i] without shifting the tail (order inside the pool carries
/// no meaning — every pop scans the whole pool and tie-breaks by seq).
IoJob take(std::vector<IoJob>& jobs, std::size_t i) {
  IoJob job = jobs[i];
  jobs[i] = jobs.back();
  jobs.pop_back();
  return job;
}

std::uint64_t distance(std::uint64_t a, std::uint64_t b) {
  return a > b ? a - b : b - a;
}

} // namespace

void FcfsScheduler::push(const IoJob& job) {
  if (count_ == ring_.size()) {
    // Full (or empty): grow by re-linearizing into a larger buffer.
    std::vector<IoJob> bigger;
    bigger.reserve(std::max<std::size_t>(8, ring_.size() * 2));
    for (std::size_t i = 0; i < count_; ++i) {
      bigger.push_back(ring_[(head_ + i) % ring_.size()]);
    }
    bigger.resize(bigger.capacity());
    ring_ = std::move(bigger);
    head_ = 0;
  }
  ring_[(head_ + count_) % ring_.size()] = job;
  ++count_;
}

void FcfsScheduler::pop_batch(std::uint64_t /*head_lba*/,
                              std::vector<IoJob>& out) {
  assert(count_ > 0);
  out.push_back(ring_[head_]);
  head_ = (head_ + 1) % ring_.size();
  --count_;
}

void SstfScheduler::pop_batch(std::uint64_t head_lba, std::vector<IoJob>& out) {
  assert(!jobs_.empty());
  Best best;
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    best.offer(distance(jobs_[i].lba, head_lba), jobs_[i], i);
  }
  out.push_back(take(jobs_, best.index));
}

void ScanScheduler::pop_batch(std::uint64_t head_lba, std::vector<IoJob>& out) {
  assert(!jobs_.empty());
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
      out.push_back(take(jobs_, best.index));
      return;
    }
    upward_ = !upward_; // LOOK: reverse at the last pending request
  }
  assert(false && "unreachable: a non-empty pool always matches one sweep");
}

BatchScheduler::BatchScheduler(std::uint32_t max_batch,
                               std::uint64_t coalesce_gap_blocks)
    : max_batch_(std::max<std::uint32_t>(1, max_batch)),
      coalesce_gap_blocks_(coalesce_gap_blocks) {}

void BatchScheduler::pop_batch(std::uint64_t head_lba,
                               std::vector<IoJob>& out) {
  assert(!jobs_.empty());
  // Seed the batch with the C-LOOK sweep's next job: the nearest job at or
  // past the head, wrapping to the globally lowest LBA when nothing lies
  // ahead.
  Best ahead;
  Best lowest;
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    const auto lba = jobs_[i].lba;
    if (lba >= head_lba) ahead.offer(lba - head_lba, jobs_[i], i);
    lowest.offer(lba, jobs_[i], i);
  }
  out.push_back(take(jobs_, ahead.found ? ahead.index : lowest.index));
  std::uint64_t end = out.back().lba + out.back().blocks;

  // Coalesce: repeatedly absorb the nearest pending extent that starts
  // within the gap window after the batch's end.  Each absorbed job rides
  // the same positioning phase (the head is already streaming past it).
  while (out.size() < max_batch_ && !jobs_.empty()) {
    Best next;
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
      const auto lba = jobs_[i].lba;
      if (lba >= end && lba - end <= coalesce_gap_blocks_) {
        next.offer(lba - end, jobs_[i], i);
      }
    }
    if (!next.found) break;
    out.push_back(take(jobs_, next.index));
    end = out.back().lba + out.back().blocks;
  }
}

} // namespace spindown::disk
