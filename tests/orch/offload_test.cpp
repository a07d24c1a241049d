// offload_test.cpp — write off-loading: log-tier placement, destage
// deadlines (edge cases), and the log-copy shadowing contract.
#include "orch/offload.h"

#include <gtest/gtest.h>

#include <vector>

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

} // namespace
} // namespace spindown::orch
