// offload_test.cpp — write off-loading: log-tier placement, destage
// deadlines (edge cases), and the log-copy shadowing contract.
#include "orch/offload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "util/rng.h"
#include "util/units.h"

namespace spindown::orch {
namespace {

constexpr std::uint32_t kDataDisks = 4;
constexpr std::uint32_t kLogDisks = 2;
constexpr double kDeadline = 100.0;
constexpr double kHorizon = 1000.0;

WriteOffload make_offload(util::Bytes capacity = util::gb(1.0)) {
  return WriteOffload{kDataDisks, kLogDisks, capacity, kDeadline, kHorizon};
}

TEST(OrchOffload, AbsorbPlacesOnLogTierAndRecordsDebt) {
  auto off = make_offload();
  const auto copy = off.absorb(/*t=*/10.0, /*id=*/7, /*file=*/3,
                               util::mb(64.0), /*blocks=*/128,
                               /*target_lba=*/555, /*target=*/2);
  ASSERT_TRUE(copy.has_value());
  EXPECT_GE(copy->log_disk, kDataDisks); // global id on the log tier
  EXPECT_LT(copy->log_disk, kDataDisks + kLogDisks);
  EXPECT_TRUE(off.has_pending(2));
  EXPECT_FALSE(off.has_pending(1));
  EXPECT_EQ(off.buffered(), 1u);
  EXPECT_EQ(off.live(), 1u);

  const auto read_copy = off.log_copy(3);
  ASSERT_TRUE(read_copy.has_value());
  EXPECT_EQ(read_copy->log_disk, copy->log_disk);
  EXPECT_EQ(read_copy->log_lba, copy->log_lba);
}

TEST(OrchOffload, DeadlineExactlyDuePopsInclusive) {
  auto off = make_offload();
  off.absorb(10.0, 1, 0, util::mb(1.0), 2, 0, 0);
  std::vector<PendingWrite> out;
  // One tick before the deadline: nothing due.
  off.drain_due(10.0 + kDeadline - 1e-9, out);
  EXPECT_TRUE(out.empty());
  // At the deadline exactly: the write destages (<=, not <).
  off.drain_due(10.0 + kDeadline, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0].deadline, 10.0 + kDeadline);
  EXPECT_EQ(out[0].target, 0u);
  EXPECT_EQ(out[0].target_lba, 0u);
  EXPECT_EQ(off.live(), 0u);
  EXPECT_FALSE(off.has_pending(0));
  EXPECT_FALSE(off.log_copy(0).has_value());
}

TEST(OrchOffload, DeadlineIsCappedAtTheHorizon) {
  auto off = make_offload();
  // Absorbed 10 s before the horizon with a 100 s deadline: the cap pulls
  // the destage inside the measurement window.
  off.absorb(kHorizon - 10.0, 1, 0, util::mb(1.0), 2, 0, 1);
  std::vector<PendingWrite> out;
  off.drain_due(kHorizon - 10.5, out);
  EXPECT_TRUE(out.empty());
  off.drain_due(kHorizon, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0].deadline, kHorizon);
}

TEST(OrchOffload, TriggeredDrainSettlesBeforeTheDeadline) {
  auto off = make_offload();
  off.absorb(10.0, 1, 0, util::mb(1.0), 2, 100, 3);
  off.absorb(11.0, 2, 1, util::mb(1.0), 2, 200, 3);
  off.absorb(12.0, 3, 2, util::mb(1.0), 2, 300, 1);

  // The target disk serves a foreground request: its whole debt destages
  // now, in buffering order; the other disk's debt is untouched.
  std::vector<PendingWrite> out;
  off.drain_disk(3, out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].request_id, 1u);
  EXPECT_EQ(out[1].request_id, 2u);
  EXPECT_FALSE(off.has_pending(3));
  EXPECT_TRUE(off.has_pending(1));

  // The deadline pass later must not re-emit the settled writes.
  out.clear();
  off.drain_due(kHorizon, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].request_id, 3u);
  EXPECT_EQ(off.destaged(), 3u);
  EXPECT_EQ(off.live(), 0u);
}

TEST(OrchOffload, NextDeadlineBoundsDrainDue) {
  auto off = make_offload();
  EXPECT_EQ(off.next_deadline(), std::numeric_limits<double>::infinity());
  off.absorb(10.0, 1, 0, util::mb(1.0), 2, 100, 3);
  off.absorb(11.0, 2, 1, util::mb(1.0), 2, 200, 3);
  off.absorb(30.0, 3, 2, util::mb(1.0), 2, 300, 1);
  EXPECT_DOUBLE_EQ(off.next_deadline(), 10.0 + kDeadline);

  // Disk 3 serves a request: its debts, the head entry among them, settle
  // early.  The head's deadline still bounds the one live deadline (130 s).
  std::vector<PendingWrite> out;
  off.drain_disk(3, out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_LE(off.next_deadline(), 30.0 + kDeadline);

  // Below the bound, drain_due drains nothing (it may step past settled
  // entries, which only raises the bound).
  for (double t = 0.0; t < 30.0 + kDeadline; t += 0.5) {
    const double bound = off.next_deadline();
    EXPECT_LE(bound, 30.0 + kDeadline);
    if (t >= bound) continue;
    out.clear();
    off.drain_due(t, out);
    EXPECT_TRUE(out.empty()) << "t = " << t;
  }
  EXPECT_DOUBLE_EQ(off.next_deadline(), 30.0 + kDeadline);
  out.clear();
  off.drain_due(30.0 + kDeadline, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].request_id, 3u);
  EXPECT_EQ(off.next_deadline(), std::numeric_limits<double>::infinity());
}

TEST(OrchOffload, NewerWriteShadowsOlderUntilBothDestage) {
  auto off = make_offload();
  const auto first = off.absorb(10.0, 1, 5, util::mb(1.0), 2, 0, 0);
  const auto second = off.absorb(20.0, 2, 5, util::mb(1.0), 2, 0, 0);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  // Reads see the freshest copy.
  const auto copy = off.log_copy(5);
  ASSERT_TRUE(copy.has_value());
  EXPECT_EQ(copy->log_lba, second->log_lba);
  // Both pendings destage (the home disk converges); the shadow map empties.
  std::vector<PendingWrite> out;
  off.drain_disk(0, out);
  EXPECT_EQ(out.size(), 2u);
  EXPECT_FALSE(off.log_copy(5).has_value());
}

TEST(OrchOffload, FullTierRejectsUntilSpaceIsReleased) {
  auto off = WriteOffload{kDataDisks, /*log_disks=*/1, util::mb(10.0),
                          kDeadline, kHorizon};
  ASSERT_TRUE(off.absorb(1.0, 1, 0, util::mb(6.0), 12, 0, 0).has_value());
  // 6 MB of a 10 MB buffer used: another 6 MB write cannot be absorbed —
  // the caller falls back to writing through to the home disk.
  EXPECT_FALSE(off.absorb(2.0, 2, 1, util::mb(6.0), 12, 0, 1).has_value());
  // Destaging returns the space and the tier absorbs again.
  std::vector<PendingWrite> out;
  off.drain_disk(0, out);
  EXPECT_TRUE(off.absorb(3.0, 3, 1, util::mb(6.0), 12, 0, 1).has_value());
}

TEST(OrchOffload, LogTierBestFitPicksTightestThenLowestId) {
  // Three 10 MB log disks (global ids 4, 5, 6).
  auto off = WriteOffload{kDataDisks, /*log_disks=*/3, util::mb(10.0),
                          kDeadline, kHorizon};
  const auto log_disk_of = [&](std::uint64_t id, double mb) {
    const auto copy =
        off.absorb(1.0, id, /*file=*/0, util::mb(mb), 2, 0, /*target=*/0);
    return copy.has_value() ? std::optional{copy->log_disk} : std::nullopt;
  };
  // All empty: a three-way tie goes to the lowest id.
  EXPECT_EQ(log_disk_of(1, 2.0), kDataDisks + 0); // used 2 / 0 / 0
  // Disk 0 cannot take 9 MB; disks 1 and 2 tie, the lower id wins.
  EXPECT_EQ(log_disk_of(2, 9.0), kDataDisks + 1); // used 2 / 9 / 0
  // All three fit 1 MB; disk 1 is the tightest, ahead of the lower id 0.
  EXPECT_EQ(log_disk_of(3, 1.0), kDataDisks + 1); // used 2 / 10 / 0
  // Disk 0 keeps 5 MB, disk 2 would keep 7: the tighter one wins.
  EXPECT_EQ(log_disk_of(4, 3.0), kDataDisks + 0); // used 5 / 10 / 0
  EXPECT_EQ(log_disk_of(5, 5.0), kDataDisks + 0); // used 10 / 10 / 0
  EXPECT_EQ(log_disk_of(6, 10.0), kDataDisks + 2); // used 10 / 10 / 10
  // Full tier: nothing fits, the caller writes through.
  EXPECT_EQ(log_disk_of(7, 1.0), std::nullopt);
  EXPECT_EQ(off.buffered(), 6u);
}

// WritePlacer suite: the log tier's best-fit placement, seen through
// absorb().  The suite keeps the name of the class that once held this rule.
// Each absorb targets its own data disk so drain_disk can release it alone.
std::optional<std::uint32_t> place_mb(WriteOffload& off, std::uint64_t id,
                                      double mb, std::uint32_t target) {
  const auto file = static_cast<workload::FileId>(id);
  const auto copy = off.absorb(1.0, id, file, util::mb(mb), 2, 0, target);
  return copy.has_value() ? std::optional{copy->log_disk} : std::nullopt;
}

TEST(WritePlacer, BestFitPicksTightestSpinningDisk) {
  auto off = WriteOffload{kDataDisks, /*log_disks=*/3, util::mb(100.0),
                          kDeadline, kHorizon};
  ASSERT_EQ(place_mb(off, 1, 100.0, 3), kDataDisks + 0); // used 100 / 0 / 0
  ASSERT_EQ(place_mb(off, 2, 80.0, 1), kDataDisks + 1);  // used 100 / 80 / 0
  ASSERT_EQ(place_mb(off, 3, 50.0, 0), kDataDisks + 2);  // used 100 / 80 / 50
  std::vector<PendingWrite> out;
  off.drain_disk(3, out);                                // used 0 / 80 / 50
  ASSERT_EQ(out.size(), 1u);
  // All three fit 10 MB; disk 1 is the tightest, ahead of both the lowest
  // id (disk 0) and the next-tightest (disk 2).
  EXPECT_EQ(place_mb(off, 4, 10.0, 2), kDataDisks + 1);
}

TEST(WritePlacer, PlacementConsumesSpace) {
  auto off = WriteOffload{kDataDisks, /*log_disks=*/1, util::mb(100.0),
                          kDeadline, kHorizon};
  EXPECT_EQ(place_mb(off, 1, 60.0, 0), kDataDisks + 0);
  EXPECT_EQ(place_mb(off, 2, 60.0, 1), std::nullopt); // no longer fits
  EXPECT_EQ(place_mb(off, 3, 40.0, 1), kDataDisks + 0); // exactly 40 left
  EXPECT_EQ(place_mb(off, 4, 1.0, 2), std::nullopt);
  EXPECT_EQ(off.buffered(), 2u);
}

TEST(WritePlacer, NulloptWhenNothingFits) {
  auto off = WriteOffload{kDataDisks, /*log_disks=*/2, util::mb(50.0),
                          kDeadline, kHorizon};
  ASSERT_EQ(place_mb(off, 1, 45.0, 0), kDataDisks + 0);
  ASSERT_EQ(place_mb(off, 2, 45.0, 1), kDataDisks + 1);
  // 5 MB free on each log disk: a 10 MB write fits on neither.
  EXPECT_EQ(place_mb(off, 3, 10.0, 2), std::nullopt);
  EXPECT_EQ(off.buffered(), 2u);
}

// A disk whose debts always expire by deadline is never drained by a
// foreground hit.  After thousands of such cycles it must owe nothing, a
// triggered drain must find nothing, and no log copy may survive.
void run_deadline_cycles(WriteOffload& off, int cycles) {
  std::vector<PendingWrite> out;
  for (int i = 0; i < cycles; ++i) {
    const double t = 2.0 * kDeadline * i;
    ASSERT_TRUE(off.absorb(t, static_cast<std::uint64_t>(i),
                           /*file=*/static_cast<workload::FileId>(i % 7),
                           util::mb(1.0), 2, 0, /*target=*/2)
                    .has_value());
    ASSERT_TRUE(off.has_pending(2));
    out.clear();
    off.drain_due(t + kDeadline, out);
    ASSERT_EQ(out.size(), 1u);
    ASSERT_FALSE(off.has_pending(2));
  }
}

TEST(OrchOffload, DeadlineDrainedDiskOwesNothing) {
  auto off = WriteOffload{kDataDisks, kLogDisks, util::gb(1.0), kDeadline,
                          /*horizon_s=*/1e9};
  run_deadline_cycles(off, 5000);
  EXPECT_FALSE(off.has_pending(2));
  EXPECT_EQ(off.live(), 0u);
  std::vector<PendingWrite> out;
  off.drain_disk(2, out);
  EXPECT_TRUE(out.empty());
  for (workload::FileId f = 0; f < 7; ++f) {
    EXPECT_FALSE(off.log_copy(f).has_value()) << "file " << f;
  }
}

TEST(OrchOffload, AbsorbAfterDeadlineCyclesIsFoundAndDrained) {
  auto off = WriteOffload{kDataDisks, kLogDisks, util::gb(1.0), kDeadline,
                          /*horizon_s=*/1e9};
  run_deadline_cycles(off, 5000);
  const double t = 2.0 * kDeadline * 5000;
  const auto copy = off.absorb(t, 9999, /*file=*/3, util::mb(1.0), 2, 42, 2);
  ASSERT_TRUE(copy.has_value());
  EXPECT_TRUE(off.has_pending(2));
  const auto read_copy = off.log_copy(3);
  ASSERT_TRUE(read_copy.has_value());
  EXPECT_EQ(read_copy->log_lba, copy->log_lba);

  std::vector<PendingWrite> out;
  off.drain_disk(2, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].request_id, 9999u);
  EXPECT_EQ(out[0].target_lba, 42u);
  EXPECT_FALSE(off.has_pending(2));
  EXPECT_FALSE(off.log_copy(3).has_value());
  EXPECT_EQ(off.live(), 0u);
}

/// The append-only queue WriteOffload used before it dropped its settled
/// prefix, kept verbatim in behaviour as the oracle for the compacting one:
/// every pending write stays in `pending` for the whole run.
class AppendOnlyOffload {
public:
  AppendOnlyOffload(std::uint32_t data_disks, std::uint32_t log_disks,
                    util::Bytes log_capacity, double deadline_s,
                    double horizon_s)
      : log_capacity_(log_capacity), log_used_(log_disks, 0),
        data_disks_(data_disks), deadline_s_(deadline_s),
        horizon_s_(horizon_s),
        capacity_blocks_(std::max<std::uint64_t>(
            1, log_capacity / util::kBlockBytes)),
        by_disk_(data_disks),
        live_by_disk_(data_disks, 0), log_cursor_(log_disks, 0) {}

  std::optional<WriteOffload::LogCopy> absorb(
      double t, std::uint64_t request_id, workload::FileId file,
      util::Bytes bytes, std::uint64_t blocks, std::uint64_t target_lba,
      std::uint32_t target) {
    // Best fit: the fullest log disk that still has room (equal capacities,
    // so fullest == least slack left); the strict > keeps the lowest id.
    std::optional<std::uint32_t> local;
    for (std::uint32_t d = 0; d < log_used_.size(); ++d) {
      if (log_capacity_ - log_used_[d] < bytes) continue;
      if (!local.has_value() || log_used_[d] > log_used_[*local]) local = d;
    }
    if (!local.has_value()) return std::nullopt;
    log_used_[*local] += bytes;
    PendingWrite p;
    p.deadline = std::min(t + deadline_s_, horizon_s_);
    p.target = target;
    p.log_disk = data_disks_ + *local;
    p.file = file;
    p.request_id = request_id;
    p.bytes = bytes;
    p.target_lba = target_lba;
    p.log_lba = log_cursor_[*local];
    log_cursor_[*local] = (log_cursor_[*local] + blocks) % capacity_blocks_;
    const auto index = static_cast<std::uint32_t>(pending_.size());
    pending_.push_back(p);
    done_.push_back(false);
    by_disk_[target].push_back(index);
    ++live_by_disk_[target];
    if (file >= latest_.size()) latest_.resize(std::size_t{file} + 1, kNil);
    latest_[file] = index;
    return WriteOffload::LogCopy{p.log_disk, p.log_lba};
  }

  std::optional<WriteOffload::LogCopy> log_copy(workload::FileId file) const {
    if (file >= latest_.size() || latest_[file] == kNil) return std::nullopt;
    const PendingWrite& p = pending_[latest_[file]];
    return WriteOffload::LogCopy{p.log_disk, p.log_lba};
  }

  bool has_pending(std::uint32_t target) const {
    return live_by_disk_[target] > 0;
  }

  void drain_disk(std::uint32_t target, std::vector<PendingWrite>& out) {
    for (const std::uint32_t index : by_disk_[target]) {
      if (!done_[index]) settle(index, out);
    }
    by_disk_[target].clear();
  }

  void drain_due(double t, std::vector<PendingWrite>& out) {
    while (head_ < pending_.size()) {
      if (done_[head_]) {
        ++head_;
        continue;
      }
      const PendingWrite& p = pending_[head_];
      if (p.deadline > t) break;
      const std::uint32_t target = p.target;
      settle(head_, out);
      if (live_by_disk_[target] == 0) by_disk_[target].clear();
      ++head_;
    }
  }

  std::size_t retained() const { return pending_.size(); }

private:
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};

  void settle(std::uint32_t index, std::vector<PendingWrite>& out) {
    const PendingWrite& p = pending_[index];
    util::Bytes& used = log_used_[p.log_disk - data_disks_];
    used -= std::min(used, p.bytes);
    if (latest_[p.file] == index) latest_[p.file] = kNil;
    --live_by_disk_[p.target];
    done_[index] = true;
    out.push_back(p);
  }

  util::Bytes log_capacity_;
  std::vector<util::Bytes> log_used_;
  std::uint32_t data_disks_;
  double deadline_s_;
  double horizon_s_;
  std::uint64_t capacity_blocks_;
  std::vector<PendingWrite> pending_;
  std::vector<bool> done_;
  std::uint32_t head_ = 0;
  std::vector<std::vector<std::uint32_t>> by_disk_;
  std::vector<std::uint32_t> live_by_disk_;
  std::vector<std::uint32_t> latest_;
  std::vector<std::uint64_t> log_cursor_;
};

void expect_same_writes(const std::vector<PendingWrite>& got,
                        const std::vector<PendingWrite>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE("entry " + std::to_string(i));
    EXPECT_EQ(got[i].deadline, want[i].deadline);
    EXPECT_EQ(got[i].target, want[i].target);
    EXPECT_EQ(got[i].log_disk, want[i].log_disk);
    EXPECT_EQ(got[i].file, want[i].file);
    EXPECT_EQ(got[i].request_id, want[i].request_id);
    EXPECT_EQ(got[i].bytes, want[i].bytes);
    EXPECT_EQ(got[i].target_lba, want[i].target_lba);
    EXPECT_EQ(got[i].log_lba, want[i].log_lba);
  }
}

TEST(OrchOffload, DroppingTheSettledPrefixDrainsLikeTheAppendOnlyQueue) {
  // 200 000 seeded steps of absorb / drain_disk / drain_due on 6 data
  // disks and 2 log disks small enough to fill: every drained batch, log
  // copy and debt flag must equal the append-only oracle's, while the
  // compacting queue stays small.  Phase 1 mixes triggered drains with
  // deadline drains; there, after drain_due(t), at most twice the writes
  // absorbed after t - deadline (plus the 64-write floor) are retained.
  // Phase 2 drains by deadline only, so every write past the head is live
  // and the bound is twice live() (plus the floor).
  constexpr std::uint32_t kData = 6;
  constexpr double kDl = 50.0;
  WriteOffload off{kData, 2, util::mb(40.0), kDl, 1e9};
  AppendOnlyOffload ref{kData, 2, util::mb(40.0), kDl, 1e9};
  util::Rng rng{2024};
  std::vector<double> absorbed_at;
  std::vector<PendingWrite> got, want;
  double t = 0.0;
  std::uint64_t id = 0;
  std::size_t max_retained = 0, rejected = 0;
  for (int phase = 1; phase <= 2; ++phase) {
    SCOPED_TRACE("phase " + std::to_string(phase));
    for (int step = 0; step < 100'000; ++step) {
      t += rng.uniform(0.0, 1.0);
      const std::uint64_t op = rng.uniform_int(0, 9);
      got.clear();
      want.clear();
      if (op < 6) {
        const auto file =
            static_cast<workload::FileId>(rng.uniform_int(0, 99));
        const util::Bytes bytes =
            util::mb(1.0) + 4'096 * rng.uniform_int(0, 255);
        const auto target =
            static_cast<std::uint32_t>(rng.uniform_int(0, kData - 1));
        const std::uint64_t lba = rng.uniform_int(0, 1'000'000);
        const auto a = off.absorb(t, id, file, bytes, util::blocks_of(bytes),
                                  lba, target);
        const auto b = ref.absorb(t, id, file, bytes, util::blocks_of(bytes),
                                  lba, target);
        ++id;
        ASSERT_EQ(a.has_value(), b.has_value());
        if (a.has_value()) {
          EXPECT_EQ(a->log_disk, b->log_disk);
          EXPECT_EQ(a->log_lba, b->log_lba);
          absorbed_at.push_back(t);
        } else {
          ++rejected;
        }
      } else if (op < 8 && phase == 1) {
        const auto target =
            static_cast<std::uint32_t>(rng.uniform_int(0, kData - 1));
        off.drain_disk(target, got);
        ref.drain_disk(target, want);
      } else {
        off.drain_due(t, got);
        ref.drain_due(t, want);
        const auto recent = static_cast<std::size_t>(
            absorbed_at.end() -
            std::upper_bound(absorbed_at.begin(), absorbed_at.end(), t - kDl));
        EXPECT_LE(off.retained(), 2 * recent + 64);
        if (phase == 2) {
          EXPECT_LE(off.retained(), 2 * off.live() + 64);
        }
      }
      expect_same_writes(got, want);
      const auto file = static_cast<workload::FileId>(rng.uniform_int(0, 99));
      const auto a = off.log_copy(file);
      const auto b = ref.log_copy(file);
      ASSERT_EQ(a.has_value(), b.has_value());
      if (a.has_value()) {
        EXPECT_EQ(a->log_lba, b->log_lba);
      }
      for (std::uint32_t d = 0; d < kData; ++d) {
        ASSERT_EQ(off.has_pending(d), ref.has_pending(d));
      }
      max_retained = std::max(max_retained, off.retained());
      if (HasFailure()) return;
    }
  }
  got.clear();
  want.clear();
  off.drain_due(2e9, got);
  ref.drain_due(2e9, want);
  expect_same_writes(got, want);
  EXPECT_EQ(off.live(), 0u);
  EXPECT_GT(rejected, 0u); // the tier filled up, and drained again
  // The oracle kept every absorbed write; the compacting queue a sliver.
  EXPECT_EQ(ref.retained(), absorbed_at.size());
  EXPECT_LT(max_retained * 20, absorbed_at.size());
}

} // namespace
} // namespace spindown::orch
