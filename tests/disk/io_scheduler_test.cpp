// io_scheduler_test.cpp — the queue's service disciplines (hand-built cases
// and a randomised drain against a brute-force reference), the seek curve,
// and the disk's geometry-aware service loop.
#include "disk/io_scheduler.h"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "disk/disk.h"
#include "obs/trace.h"
#include "support/span_completions.h"
#include "util/units.h"

namespace spindown::disk {
namespace {

IoJob job(std::uint64_t id, std::uint64_t lba, std::uint64_t blocks = 8,
          std::uint64_t seq = 0) {
  IoJob j;
  j.request_id = id;
  j.bytes = blocks * util::kBlockBytes;
  j.lba = lba;
  j.blocks = blocks;
  j.seq = seq != 0 ? seq : id;
  return j;
}

std::vector<std::uint64_t> drain(IoQueue& s, std::uint64_t head = 0) {
  std::vector<std::uint64_t> order;
  std::vector<IoJob> batch;
  while (!s.empty()) {
    batch.clear();
    s.pop_batch(head, batch);
    for (const auto& j : batch) {
      order.push_back(j.request_id);
      head = j.lba + j.blocks;
    }
  }
  return order;
}

TEST(FcfsScheduler, ServesInArrivalOrderIgnoringGeometry) {
  IoQueue s;
  s.push(job(0, 900));
  s.push(job(1, 10));
  s.push(job(2, 500));
  EXPECT_FALSE(s.geometry_aware);
  EXPECT_EQ(drain(s), (std::vector<std::uint64_t>{0, 1, 2}));
}

TEST(FcfsScheduler, RingBufferSurvivesGrowthAndWrap) {
  IoQueue s{Discipline::kFcfs};
  // Interleave pushes and pops so the front index moves across growth and
  // compaction of the storage while the queue never drains.
  std::uint64_t next_push = 0, next_pop = 0;
  std::vector<IoJob> batch;
  for (int round = 0; round < 100; ++round) {
    s.push(job(next_push, next_push * 10));
    ++next_push;
    if (round % 3 != 0) {
      batch.clear();
      s.pop_batch(0, batch);
      ASSERT_EQ(batch.size(), 1u);
      EXPECT_EQ(batch[0].request_id, next_pop);
      ++next_pop;
    }
  }
  while (!s.empty()) {
    batch.clear();
    s.pop_batch(0, batch);
    EXPECT_EQ(batch[0].request_id, next_pop++);
  }
  EXPECT_EQ(next_pop, next_push);
}

TEST(SstfScheduler, PicksNearestLba) {
  IoQueue s{Discipline::kSstf};
  s.push(job(0, 1000));
  s.push(job(1, 100));
  s.push(job(2, 1050));
  s.push(job(3, 2000));
  // Greedy walk with the head moving to the end of each served extent:
  // from 1040 the nearest is 1050; from 1058, 1000; from 1008, 100 (908
  // away) still beats 2000 (992 away); 2000 is last.
  EXPECT_EQ(drain(s, 1040), (std::vector<std::uint64_t>{2, 0, 1, 3}));
}

TEST(SstfScheduler, EqualDistanceBreaksTiesBySubmissionOrder) {
  IoQueue s{Discipline::kSstf};
  s.push(job(7, 200, 8, /*seq=*/2));
  s.push(job(8, 200, 8, /*seq=*/1));
  std::vector<IoJob> batch;
  s.pop_batch(200, batch);
  EXPECT_EQ(batch[0].request_id, 8u); // earlier seq wins
}

TEST(ScanScheduler, SweepsUpThenReverses) {
  IoQueue s{Discipline::kScan};
  s.push(job(0, 500));
  s.push(job(1, 300));
  s.push(job(2, 700));
  s.push(job(3, 100));
  // Head 400, sweeping upward: 500, 700; reverse: 300 (with head at
  // 700+8), then 100.
  EXPECT_EQ(drain(s, 400), (std::vector<std::uint64_t>{0, 2, 1, 3}));
}

TEST(BatchScheduler, SizeOneWrapsToLowestPendingLba) {
  IoQueue s{Discipline::kClook}; // a batch of one
  s.push(job(0, 500));
  s.push(job(1, 300));
  s.push(job(2, 700));
  s.push(job(3, 100));
  // Head 400: up to 500, 700; wrap to the lowest (100), then 300.  The
  // default 2048-block gap would coalesce these extents; a batch of one
  // cannot, so this is the C-LOOK order.
  EXPECT_EQ(drain(s, 400), (std::vector<std::uint64_t>{0, 2, 3, 1}));
}

TEST(BatchScheduler, CoalescesAdjacentExtentsIntoOneBatch) {
  IoQueue s{Discipline::kBatch, /*max_batch=*/16, /*coalesce_gap_blocks=*/4};
  s.push(job(0, 100, 10)); // [100, 110)
  s.push(job(1, 110, 10)); // exactly adjacent
  s.push(job(2, 123, 10)); // gap of 3 <= 4: coalesced
  s.push(job(3, 500, 10)); // far away: next batch
  std::vector<IoJob> batch;
  s.pop_batch(0, batch);
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0].request_id, 0u);
  EXPECT_EQ(batch[1].request_id, 1u);
  EXPECT_EQ(batch[2].request_id, 2u);
  batch.clear();
  s.pop_batch(133, batch);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].request_id, 3u);
}

TEST(BatchScheduler, RespectsMaxBatch) {
  IoQueue s{Discipline::kBatch, /*max_batch=*/2, /*coalesce_gap_blocks=*/64};
  s.push(job(0, 100, 10));
  s.push(job(1, 110, 10));
  s.push(job(2, 120, 10));
  std::vector<IoJob> batch;
  s.pop_batch(0, batch);
  EXPECT_EQ(batch.size(), 2u);
}

// ---- randomised drains against a brute-force reference ----------------------

/// The pick rules of io_scheduler.h written the slow way: the pool keeps
/// push order, a served job is erased (not swapped out), and every pick is
/// the least (key, seq) over the jobs its rule admits.
struct ReferenceQueue {
  Discipline kind;
  std::uint32_t max_batch;
  std::uint64_t gap;
  std::vector<IoJob> pool;
  bool upward = true;

  using Key = std::optional<std::uint64_t>;

  template <typename Rule>
  std::optional<std::size_t> pick(Rule rule) const {
    std::optional<std::size_t> best;
    for (std::size_t i = 0; i < pool.size(); ++i) {
      const Key k = rule(pool[i]);
      if (!k) continue;
      if (!best || std::pair{*k, pool[i].seq} <
                       std::pair{*rule(pool[*best]), pool[*best].seq}) {
        best = i;
      }
    }
    return best;
  }

  std::vector<std::uint64_t> pop(std::uint64_t head) {
    std::vector<IoJob> batch;
    const auto take = [&](std::size_t i) {
      batch.push_back(pool[i]);
      pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(i));
    };
    switch (kind) {
      case Discipline::kFcfs:
        take(0);
        break;
      case Discipline::kSstf:
        take(*pick([&](const IoJob& j) -> Key {
          return j.lba > head ? j.lba - head : head - j.lba;
        }));
        break;
      case Discipline::kScan: {
        const auto ahead = [&](const IoJob& j) -> Key {
          if (upward && j.lba >= head) return j.lba - head;
          if (!upward && j.lba <= head) return head - j.lba;
          return std::nullopt;
        };
        auto i = pick(ahead);
        if (!i) {
          upward = !upward;
          i = pick(ahead);
        }
        take(*i);
        break;
      }
      case Discipline::kClook:
      case Discipline::kBatch: {
        auto i = pick([&](const IoJob& j) -> Key {
          if (j.lba >= head) return j.lba - head;
          return std::nullopt;
        });
        if (!i) i = pick([](const IoJob& j) -> Key { return j.lba; });
        take(*i);
        const std::size_t n = kind == Discipline::kClook ? 1 : max_batch;
        while (batch.size() < n) {
          const std::uint64_t end = batch.back().lba + batch.back().blocks;
          const auto next = pick([&](const IoJob& j) -> Key {
            if (j.lba >= end && j.lba - end <= gap) return j.lba - end;
            return std::nullopt;
          });
          if (!next) break;
          take(*next);
        }
        break;
      }
    }
    std::vector<std::uint64_t> ids;
    for (const auto& j : batch) ids.push_back(j.request_id);
    return ids;
  }
};

TEST(IoQueueRandomDrain, EveryDisciplineMatchesTheBruteForceReference) {
  // LBAs on a coarse grid so pools hold many duplicates (ties broken by
  // seq); extents of 50, 100 or 150 blocks end 50 short of, exactly at, or
  // 50 past the next grid point, so a 64-block gap coalesces some
  // neighbours and not others.  Pushes and pops interleave, so the pool's
  // storage order drifts away from seq order through swap-removal.
  constexpr std::uint64_t kGrid = 100;
  constexpr std::uint64_t kTop = 20 * kGrid;
  util::Rng rng{2024};
  for (const Discipline kind :
       {Discipline::kFcfs, Discipline::kSstf, Discipline::kScan,
        Discipline::kClook, Discipline::kBatch}) {
    for (int trial = 0; trial < 200; ++trial) {
      SCOPED_TRACE(::testing::Message()
                   << "discipline " << static_cast<int>(kind) << " trial "
                   << trial);
      IoQueue queue{kind, /*max_batch=*/4, /*coalesce_gap_blocks=*/64};
      ReferenceQueue ref{kind, 4, 64, {}};
      std::uint64_t head = trial % 2 == 0 ? 0 : kTop + 1000;
      const std::uint64_t total = rng.uniform_int(1, 40);
      std::uint64_t pushed = 0;
      std::vector<IoJob> batch;
      while (pushed < total || !queue.empty()) {
        for (std::uint64_t k = rng.uniform_int(0, 3); k > 0 && pushed < total;
             --k, ++pushed) {
          const IoJob j = job(pushed, rng.uniform_int(0, kTop / kGrid) * kGrid,
                              50 * rng.uniform_int(1, 3), pushed + 1);
          queue.push(j);
          ref.pool.push_back(j);
        }
        ASSERT_EQ(queue.size(), ref.pool.size());
        if (queue.empty()) continue;
        batch.clear();
        queue.pop_batch(head, batch);
        std::vector<std::uint64_t> ids;
        for (const auto& j : batch) ids.push_back(j.request_id);
        ASSERT_EQ(ids, ref.pop(head));
        head = batch.back().lba + batch.back().blocks;
      }
    }
  }
}

TEST(SeekCurve, CalibratedMeanOverUniformDistancesEqualsAvgSeek) {
  const auto p = DiskParams::st3500630as();
  // E[|x - y|] over independent uniform head/target positions is 1/3; the
  // linear curve must average to avg_seek_s there.  Evaluate the exact
  // expectation of the linear curve at d = 1/3.
  EXPECT_NEAR(p.seek_time(1.0 / 3.0), p.avg_seek_s, 1e-15);
  // Monte-Carlo over the uniform-uniform distance distribution as a
  // cross-check of the calibration argument itself.
  util::Rng rng{123};
  double acc = 0.0;
  const int n = 200'000;
  for (int i = 0; i < n; ++i) {
    acc += p.seek_time(std::abs(rng.uniform01() - rng.uniform01()));
  }
  EXPECT_NEAR(acc / n, p.avg_seek_s, 1e-4);
  // Endpoints: settle floor at a third of the average, monotone to the
  // full-stroke maximum.
  EXPECT_NEAR(p.seek_time(0.0), p.avg_seek_s / 3.0, 1e-15);
  EXPECT_GT(p.seek_time(1.0), p.seek_time(0.5));
}

// ---- the Disk's geometry-aware service loop ---------------------------------

class SchedulerDiskFixture : public ::testing::Test {
protected:
  DiskParams params_ = DiskParams::st3500630as();
  obs::TraceBuffer spans_{obs::kind_bit(obs::Kind::kSpan)};

  std::unique_ptr<Disk> make_disk(IoQueue queue) {
    auto d = std::make_unique<Disk>(0, params_,
                                    std::make_unique<NeverSpinDownPolicy>(),
                                    util::Rng{1}, std::move(queue));
    d->set_trace(&spans_);
    return d;
  }

  std::vector<obs::TraceEvent> completions() const {
    return test_support::completions(spans_);
  }
};

TEST_F(SchedulerDiskFixture, SstfReordersAQueuedBurst) {
  auto d = make_disk(IoQueue{Discipline::kSstf});
  const util::Bytes size = util::mb(72.0);
  const std::uint64_t blocks = util::blocks_of(size);
  // Burst of three while the first is in service: the far one (id 1) must
  // be served last even though it arrived first.
  d->submit(0.0, 0, size, 0);
  d->submit(0.0, 1, size, 800'000'000); // far
  d->submit(0.0, 2, size, blocks + 10); // near the head after job 0
  d->settle_all();
  const auto done = completions();
  ASSERT_EQ(done.size(), 3u);
  EXPECT_EQ(done[0].id, 0u);
  EXPECT_EQ(done[1].id, 2u);
  EXPECT_EQ(done[2].id, 1u);
}

TEST_F(SchedulerDiskFixture, GeometrySeekIsBilledByDistance) {
  auto d = make_disk(IoQueue{Discipline::kSstf});
  const util::Bytes size = util::mb(72.0); // 1 s transfer
  const std::uint64_t capacity_blocks = util::blocks_of(params_.capacity);
  // One request at LBA 0 (head starts there: zero distance), then one at
  // half the stroke.
  d->submit(0.0, 0, size, 0);
  d->submit(5.0, 1, size, capacity_blocks / 2);
  d->settle_all();
  const auto done = completions();
  ASSERT_EQ(done.size(), 2u);
  const double transfer = params_.transfer_time(size);
  EXPECT_NEAR(done[0].value,
              params_.seek_time(0.0) + params_.avg_rotation_s + transfer,
              1e-12);
  // Head is at blocks_of(size) after job 0; distance to capacity/2.
  const double dist =
      static_cast<double>(capacity_blocks / 2 - util::blocks_of(size)) /
      static_cast<double>(capacity_blocks);
  EXPECT_NEAR(done[1].value,
              params_.seek_time(dist) + params_.avg_rotation_s + transfer,
              1e-9);
}

TEST_F(SchedulerDiskFixture, BatchPaysOnePositioningPhaseForAdjacentExtents) {
  auto d = make_disk(IoQueue{Discipline::kBatch, 16, 64});
  const util::Bytes size = util::mb(72.0); // 1 s transfer each
  const std::uint64_t blocks = util::blocks_of(size);
  const std::uint64_t warm_lba = 10'000'000;
  // A warm request occupies the head so the adjacent trio is all pending
  // when the next batch is popped.
  d->submit(0.0, 9, size, warm_lba);
  d->submit(0.5, 0, size, 0);
  d->submit(0.5, 1, size, blocks);     // adjacent
  d->submit(0.5, 2, size, 2 * blocks); // adjacent
  const auto m = d->metrics(d->settle_all());
  const auto done = completions();
  ASSERT_EQ(done.size(), 4u);
  // One positioning phase for the warm request, one for the whole trio.
  EXPECT_EQ(m.positionings, 2u);
  EXPECT_EQ(m.served, 4u);
  const double cap = static_cast<double>(util::blocks_of(params_.capacity));
  const double transfer = params_.transfer_time(size);
  const double pos_warm =
      params_.seek_time(static_cast<double>(warm_lba) / cap) +
      params_.avg_rotation_s;
  // C-LOOK wraps from the warm extent's end down to LBA 0 for the trio.
  const double pos_trio =
      params_.seek_time(static_cast<double>(warm_lba + blocks) / cap) +
      params_.avg_rotation_s;
  EXPECT_NEAR(done[3].t,
              pos_warm + transfer + pos_trio + 3 * transfer, 1e-9);
  EXPECT_NEAR(m.time_in(PowerState::kPositioning), pos_warm + pos_trio, 1e-12);
  EXPECT_NEAR(m.time_in(PowerState::kTransfer), 4 * transfer, 1e-9);
  // The trio arrived together and shares one service start (the batch's
  // positioning start), so it shares one wait.
  EXPECT_DOUBLE_EQ(done[1].aux, done[2].aux);
  EXPECT_DOUBLE_EQ(done[1].aux, done[3].aux);
}

TEST_F(SchedulerDiskFixture, MetricsSnapshotCountsEveryRequestExactlyOnce) {
  auto d = make_disk(IoQueue{Discipline::kFcfs});
  const util::Bytes size = util::mb(720.0); // 10 s transfer
  d->submit(0.0, 0, size);
  d->submit(0.0, 1, size);
  d->submit(0.0, 2, size);
  {
    // Mid-first-transfer: one in service, two queued, none served.
    const auto m = d->metrics(5.0);
    EXPECT_EQ(m.served, 0u);
    EXPECT_EQ(m.in_service, 1u);
    EXPECT_EQ(m.queued, 2u);
    EXPECT_EQ(m.served + m.in_service + m.queued, 3u);
  }
  {
    // Mid-second-transfer: one served, one in service, one queued.
    const auto m = d->metrics(15.0);
    EXPECT_EQ(m.served, 1u);
    EXPECT_EQ(m.in_service, 1u);
    EXPECT_EQ(m.queued, 1u);
  }
  const auto m = d->metrics(d->settle_all());
  EXPECT_EQ(m.served, 3u);
  EXPECT_EQ(m.in_service, 0u);
  EXPECT_EQ(m.queued, 0u);
}

TEST_F(SchedulerDiskFixture, FcfsDefaultMatchesLegacyConstantPositioning) {
  // A Disk constructed without a queue serves FCFS with the constant
  // position_time() — the seed simulator's exact timing.
  auto d = std::make_unique<Disk>(0, params_,
                                  std::make_unique<NeverSpinDownPolicy>(),
                                  util::Rng{1});
  d->set_trace(&spans_);
  const util::Bytes size = util::mb(72.0);
  d->submit(0.0, 9, size, /*lba=*/12345);
  d->settle_all();
  const auto done = completions();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_NEAR(done[0].t, params_.service_time(size), 1e-12);
}

} // namespace
} // namespace spindown::disk
