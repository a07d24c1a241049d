#include "orch/offload.h"

#include <algorithm>
#include <stdexcept>

namespace spindown::orch {

WriteOffload::WriteOffload(std::uint32_t data_disks, std::uint32_t log_disks,
                           util::Bytes log_capacity, double deadline_s,
                           double horizon_s)
    : placer_(log_disks, log_capacity, core::FitRule::kBestFit),
      data_disks_(data_disks), deadline_s_(deadline_s), horizon_s_(horizon_s),
      capacity_blocks_(std::max<std::uint64_t>(
          1, log_capacity / util::kBlockBytes)),
      all_spinning_(log_disks, true), by_disk_(data_disks),
      live_by_disk_(data_disks, 0), log_cursor_(log_disks, 0) {
  if (data_disks == 0 || log_disks == 0) {
    throw std::invalid_argument{
        "WriteOffload: need at least one data disk and one log disk"};
  }
  if (!(deadline_s > 0.0)) {
    throw std::invalid_argument{"WriteOffload: deadline must be positive"};
  }
}

std::optional<WriteOffload::LogCopy> WriteOffload::absorb(
    double t, std::uint64_t request_id, workload::FileId file,
    util::Bytes bytes, std::uint64_t blocks, std::uint64_t target_lba,
    std::uint32_t target) {
  // Every log disk is always-on, so the spinning-aware placer degenerates
  // to best-fit over free buffer space — exactly §1.1's write rule.
  const auto local = placer_.place(bytes, all_spinning_);
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
  p.blocks = blocks;
  log_cursor_[*local] = (log_cursor_[*local] + blocks) % capacity_blocks_;

  const auto index = static_cast<std::uint32_t>(pending_.size());
  pending_.push_back(p);
  done_.push_back(false);
  by_disk_[target].push_back(index);
  ++live_by_disk_[target];
  if (file >= latest_.size()) latest_.resize(std::size_t{file} + 1, kNil);
  latest_[file] = index; // newer write shadows an older pending copy
  ++buffered_;
  return LogCopy{p.log_disk, p.log_lba};
}

std::optional<WriteOffload::LogCopy> WriteOffload::log_copy(
    workload::FileId file) const {
  if (file >= latest_.size() || latest_[file] == kNil) return std::nullopt;
  const PendingWrite& p = pending_[latest_[file]];
  return LogCopy{p.log_disk, p.log_lba};
}

bool WriteOffload::has_pending(std::uint32_t target) const {
  return target < live_by_disk_.size() && live_by_disk_[target] > 0;
}

void WriteOffload::settle(std::uint32_t index,
                          std::vector<PendingWrite>& out) {
  const PendingWrite& p = pending_[index];
  placer_.release(p.log_disk - data_disks_, p.bytes);
  if (latest_[p.file] == index) latest_[p.file] = kNil;
  --live_by_disk_[p.target];
  done_[index] = true;
  ++destaged_;
  out.push_back(p);
}

void WriteOffload::drain_disk(std::uint32_t target,
                              std::vector<PendingWrite>& out) {
  if (target >= by_disk_.size()) return;
  for (const std::uint32_t index : by_disk_[target]) {
    if (!done_[index]) settle(index, out);
  }
  by_disk_[target].clear();
}

void WriteOffload::drain_due(double t, std::vector<PendingWrite>& out) {
  // Deadlines are non-decreasing in insertion order (monotone t, constant
  // deadline_s, horizon cap), so "everything due" is a prefix.
  while (head_ < pending_.size()) {
    if (done_[head_]) {
      ++head_;
      continue;
    }
    const PendingWrite& p = pending_[head_];
    if (p.deadline > t) break;
    // Settle; the index stays in its disk's list (drain_disk skips done_
    // entries) until that disk owes nothing, when the list is cleared — a
    // disk whose debts always expire by deadline keeps no stale indices.
    const std::uint32_t target = p.target;
    settle(head_, out);
    if (live_by_disk_[target] == 0) by_disk_[target].clear();
    ++head_;
  }
}

} // namespace spindown::orch
