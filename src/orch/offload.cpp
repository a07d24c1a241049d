#include "orch/offload.h"

#include <algorithm>
#include <cstddef>
#include <stdexcept>

namespace spindown::orch {

WriteOffload::WriteOffload(std::uint32_t data_disks, std::uint32_t log_disks,
                           util::Bytes log_capacity, double deadline_s,
                           double horizon_s)
    : log_capacity_(log_capacity), log_used_(log_disks, 0),
      data_disks_(data_disks), deadline_s_(deadline_s), horizon_s_(horizon_s),
      capacity_blocks_(std::max<std::uint64_t>(
          1, log_capacity / util::kBlockBytes)),
      by_disk_(data_disks), live_by_disk_(data_disks, 0),
      log_cursor_(log_disks, 0) {
  if (data_disks == 0 || log_disks == 0) {
    throw std::invalid_argument{
        "WriteOffload: need at least one data disk and one log disk"};
  }
  if (!(deadline_s > 0.0)) {
    throw std::invalid_argument{"WriteOffload: deadline must be positive"};
  }
}

std::optional<std::uint32_t> WriteOffload::place(util::Bytes bytes) {
  // Best fit: the log disk left with the least free space; the strict <
  // sends ties to the lowest log disk.
  std::optional<std::uint32_t> best;
  util::Bytes best_slack = 0;
  for (std::uint32_t d = 0; d < log_used_.size(); ++d) {
    if (log_used_[d] + bytes > log_capacity_) continue;
    const util::Bytes slack = log_capacity_ - log_used_[d] - bytes;
    if (!best.has_value() || slack < best_slack) {
      best = d;
      best_slack = slack;
    }
  }
  if (best.has_value()) log_used_[*best] += bytes;
  return best;
}

std::optional<WriteOffload::LogCopy> WriteOffload::absorb(
    double t, std::uint64_t request_id, workload::FileId file,
    util::Bytes bytes, std::uint64_t blocks, std::uint64_t target_lba,
    std::uint32_t target) {
  const auto local = place(bytes);
  if (!local.has_value()) return std::nullopt;

  PendingWrite p;
  // The horizon cap keeps deadlines monotone (t is non-decreasing) *and*
  // guarantees the tier drains inside the measurement window.
  p.deadline = std::min(t + deadline_s_, horizon_s_);
  p.target = target;
  p.log_disk = data_disks_ + *local;
  p.file = file;
  p.request_id = request_id;
  p.bytes = bytes;
  p.target_lba = target_lba;
  p.log_lba = log_cursor_[*local];
  log_cursor_[*local] = (log_cursor_[*local] + blocks) % capacity_blocks_;

  const auto seq = base_ + static_cast<std::uint32_t>(pending_.size());
  pending_.push_back(p);
  done_.push_back(false);
  by_disk_[target].push_back(seq);
  ++live_by_disk_[target];
  if (file >= latest_.size()) latest_.resize(std::size_t{file} + 1, kNil);
  latest_[file] = seq; // newer write shadows an older pending copy
  ++buffered_;
  return LogCopy{p.log_disk, p.log_lba};
}

std::optional<WriteOffload::LogCopy> WriteOffload::log_copy(
    workload::FileId file) const {
  if (file >= latest_.size() || latest_[file] == kNil) return std::nullopt;
  const PendingWrite& p = pending_[latest_[file] - base_];
  return LogCopy{p.log_disk, p.log_lba};
}

bool WriteOffload::has_pending(std::uint32_t target) const {
  return target < live_by_disk_.size() && live_by_disk_[target] > 0;
}

void WriteOffload::settle(std::uint32_t seq, std::vector<PendingWrite>& out) {
  const PendingWrite& p = pending_[seq - base_];
  util::Bytes& used = log_used_[p.log_disk - data_disks_];
  used = p.bytes > used ? 0 : used - p.bytes;
  if (latest_[p.file] == seq) latest_[p.file] = kNil;
  --live_by_disk_[p.target];
  done_[seq - base_] = true;
  ++destaged_;
  out.push_back(p);
}

void WriteOffload::drain_disk(std::uint32_t target,
                              std::vector<PendingWrite>& out) {
  if (target >= by_disk_.size()) return;
  for (const std::uint32_t seq : by_disk_[target]) {
    if (!done_[seq - base_]) settle(seq, out);
  }
  by_disk_[target].clear();
}

void WriteOffload::drain_due(double t, std::vector<PendingWrite>& out) {
  // Deadlines are non-decreasing in insertion order (monotone t, constant
  // deadline_s, horizon cap), so "everything due" is a prefix.
  const auto end = base_ + static_cast<std::uint32_t>(pending_.size());
  while (head_ < end) {
    if (done_[head_ - base_]) {
      ++head_;
      continue;
    }
    const PendingWrite& p = pending_[head_ - base_];
    if (p.deadline > t) break;
    // Settle; the number stays in its disk's list (drain_disk skips settled
    // entries) until that disk owes nothing, when the list is cleared — a
    // disk whose debts always expire by deadline keeps no stale numbers.
    const std::uint32_t target = p.target;
    settle(head_, out);
    if (live_by_disk_[target] == 0) by_disk_[target].clear();
    ++head_;
  }
  drop_settled_prefix();
}

void WriteOffload::drop_settled_prefix() {
  // Everything below head_ is settled.  Dropping it only once it is over
  // half the queue (and not tiny) keeps the erase amortized O(1) per write.
  constexpr std::size_t kMinDrop = 64;
  const std::size_t settled = head_ - base_;
  if (settled < kMinDrop || 2 * settled < pending_.size()) return;
  const auto cut = static_cast<std::ptrdiff_t>(settled);
  pending_.erase(pending_.begin(), pending_.begin() + cut);
  done_.erase(done_.begin(), done_.begin() + cut);
  base_ = head_;
  // A disk that always owes something never has its list cleared: trim the
  // numbers that fell below base_ (each list is in absorb order).
  for (auto& list : by_disk_) {
    list.erase(list.begin(),
               std::lower_bound(list.begin(), list.end(), base_));
  }
}

} // namespace spindown::orch
