// alloc_count_test.cpp — proves the steady-state event loop is allocation-
// free.
//
// The file replaces the global operator new/delete with counting versions
// (they still allocate through std::malloc, so ASan keeps seeing every
// allocation).  The override is binary-wide, which is harmless for the other
// suites in this binary: they only gain a relaxed atomic increment per
// allocation.
//
// Methodology: warm the kernel up past its slab/heap growth phase, snapshot
// the counter, run a large number of schedule -> fire cycles, and require
// the counter delta to be exactly zero.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

#include "cache/recency.h"
#include "des/simulation.h"
#include "disk/disk.h"
#include "disk/io_scheduler.h"
#include "disk/spin_policy.h"
#include "obs/trace.h"
#include "util/units.h"

namespace {
std::atomic<std::uint64_t> g_news{0};
}

void* operator new(std::size_t size) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

void* operator new[](std::size_t size) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace spindown::des {
namespace {

std::uint64_t allocation_count() {
  return g_news.load(std::memory_order_relaxed);
}

TEST(AllocCount, SteadyStateScheduleFireCycleIsAllocationFree) {
  Simulation sim;
  struct Chain {
    Simulation& sim;
    std::uint64_t remaining;
    void operator()() {
      if (remaining-- > 0) {
        sim.schedule_in(1.0, [this] { (*this)(); });
      }
    }
  };
  // Warm-up: grows the slab, the calendar heap, and any lazy allocations.
  Chain warm{sim, 1000};
  warm();
  sim.run();

  Chain chain{sim, 50000};
  const std::uint64_t before = allocation_count();
  chain();
  sim.run();
  const std::uint64_t after = allocation_count();
  EXPECT_EQ(after - before, 0u);
  EXPECT_GE(sim.executed(), 51000u);
}

// The completion chain through the disk: submit -> schedule completion ->
// completion callback -> resubmit.  With the InlineFunction callbacks and
// the schedulers' grow-only storage the whole cycle must be allocation-free
// once warm, end to end.
void run_disk_cycle_test(std::unique_ptr<spindown::disk::IoScheduler> sched) {
  using spindown::disk::Completion;
  using spindown::disk::Disk;
  Simulation sim;
  Disk disk{sim, 0, spindown::disk::DiskParams::st3500630as(),
            std::make_unique<spindown::disk::NeverSpinDownPolicy>(),
            spindown::util::Rng{1}, std::move(sched)};

  struct Chain {
    Simulation& sim;
    Disk& disk;
    std::uint64_t remaining;
    std::uint64_t measure_at;
    std::uint64_t before = 0;
    std::uint64_t lba = 0;
    void submit_next() {
      lba = (lba + 4096) % 1'000'000;
      disk.submit(remaining, 100 * spindown::util::kBlockBytes, lba, 100);
    }
    void operator()(const Completion&) {
      // Snapshot after the warm-up portion of one continuous chain (the
      // disk never goes idle in between, so no lazy growth straddles the
      // measured region).
      if (remaining == measure_at) before = allocation_count();
      if (remaining-- > 0) submit_next();
    }
  };
  Chain chain{sim, disk, 20'000, /*measure_at=*/18'000};
  disk.set_completion_callback([&chain](const Completion& c) { chain(c); });
  sim.schedule_at(0.0, [&chain] { chain.submit_next(); });
  sim.run();
  const std::uint64_t after = allocation_count();
  EXPECT_EQ(after - chain.before, 0u);
  EXPECT_EQ(disk.metrics(sim.now()).served, 20'001u);
}

TEST(AllocCount, DiskSubmitCompleteCycleIsAllocationFreeFcfs) {
  run_disk_cycle_test(std::make_unique<spindown::disk::FcfsScheduler>());
}

TEST(AllocCount, DiskSubmitCompleteCycleIsAllocationFreeSstf) {
  run_disk_cycle_test(std::make_unique<spindown::disk::SstfScheduler>());
}

TEST(AllocCount, DiskSubmitCompleteCycleIsAllocationFreeBatch) {
  run_disk_cycle_test(std::make_unique<spindown::disk::BatchScheduler>());
}

// The same disk cycle with observability wired but OFF: a Disk holding a
// null TraceBuffer pointer (the obs=off path is a branch on that null) must
// stay exactly as allocation-free as an untraced disk.
TEST(AllocCount, DiskCycleWithObsOffIsAllocationFree) {
  using spindown::disk::Completion;
  using spindown::disk::Disk;
  Simulation sim;
  Disk disk{sim, 0, spindown::disk::DiskParams::st3500630as(),
            std::make_unique<spindown::disk::NeverSpinDownPolicy>(),
            spindown::util::Rng{1},
            std::make_unique<spindown::disk::FcfsScheduler>()};
  disk.set_trace(nullptr); // obs=off: explicit null sink

  struct Chain {
    Simulation& sim;
    Disk& disk;
    std::uint64_t remaining;
    std::uint64_t measure_at;
    std::uint64_t before = 0;
    std::uint64_t lba = 0;
    void submit_next() {
      lba = (lba + 4096) % 1'000'000;
      disk.submit(remaining, 100 * spindown::util::kBlockBytes, lba, 100);
    }
    void operator()(const Completion&) {
      if (remaining == measure_at) before = allocation_count();
      if (remaining-- > 0) submit_next();
    }
  };
  Chain chain{sim, disk, 20'000, /*measure_at=*/18'000};
  disk.set_completion_callback([&chain](const Completion& c) { chain(c); });
  sim.schedule_at(0.0, [&chain] { chain.submit_next(); });
  sim.run();
  const std::uint64_t after = allocation_count();
  EXPECT_EQ(after - chain.before, 0u);
}

// Tracing into a pre-reserved buffer: the emit path is a bounds-checked
// push_back, so once the buffer holds enough capacity the traced steady
// state allocates nothing either.
TEST(AllocCount, DiskCycleTracingIntoReservedBufferIsAllocationFree) {
  using spindown::disk::Completion;
  using spindown::disk::Disk;
  Simulation sim;
  spindown::obs::TraceBuffer trace{
      spindown::obs::kind_bit(spindown::obs::Kind::kSpan) |
      spindown::obs::kind_bit(spindown::obs::Kind::kPower)};
  // 5 span edges plus up to 3 power transitions per request.
  trace.reserve(10 * 21'000);
  Disk disk{sim, 0, spindown::disk::DiskParams::st3500630as(),
            std::make_unique<spindown::disk::NeverSpinDownPolicy>(),
            spindown::util::Rng{1},
            std::make_unique<spindown::disk::FcfsScheduler>()};
  disk.set_trace(&trace);

  struct Chain {
    Simulation& sim;
    Disk& disk;
    std::uint64_t remaining;
    std::uint64_t measure_at;
    std::uint64_t before = 0;
    std::uint64_t lba = 0;
    void submit_next() {
      lba = (lba + 4096) % 1'000'000;
      disk.submit(remaining, 100 * spindown::util::kBlockBytes, lba, 100);
    }
    void operator()(const Completion&) {
      if (remaining == measure_at) before = allocation_count();
      if (remaining-- > 0) submit_next();
    }
  };
  Chain chain{sim, disk, 20'000, /*measure_at=*/18'000};
  disk.set_completion_callback([&chain](const Completion& c) { chain(c); });
  sim.schedule_at(0.0, [&chain] { chain.submit_next(); });
  sim.run();
  const std::uint64_t after = allocation_count();
  EXPECT_EQ(after - chain.before, 0u);
  EXPECT_GT(trace.size(), 5u * 20'000u); // the events really were recorded
}

// The front cache runs once per request on the router thread.  Once the
// slab has grown to the peak resident count and the slot index to the
// largest id, miss -> evict -> admit and hit cycles allocate nothing.
template <typename Cache>
void run_cache_cycle_test() {
  Cache cache{10 * 100}; // room for ten 100-byte files
  const auto round = [&cache] {
    for (spindown::workload::FileId id = 0; id < 1000; ++id) {
      cache.access(id, 100);                  // miss: evicts the tail
      cache.access(id, 100);                  // hit at the head
      if (id > 0) cache.access(id - 1, 100);  // hit behind the head
    }
  };
  round(); // warm-up: grows the slab and the slot index
  const std::uint64_t before = allocation_count();
  for (int r = 0; r < 50; ++r) round();
  const std::uint64_t after = allocation_count();
  EXPECT_EQ(after - before, 0u);
  EXPECT_GE(cache.stats().evictions, 50u * 1000u);
  EXPECT_GE(cache.stats().hits, 50u * 1999u);
}

TEST(AllocCount, LruCacheMissEvictHitCycleIsAllocationFree) {
  run_cache_cycle_test<spindown::cache::LruCache>();
}

TEST(AllocCount, FifoCacheMissEvictHitCycleIsAllocationFree) {
  run_cache_cycle_test<spindown::cache::FifoCache>();
}

TEST(AllocCount, OversizedCaptureDoesAllocate) {
  // Sanity check that the counter actually observes the heap fallback path.
  Simulation sim;
  struct Big {
    char blob[128];
  };
  Big big{};
  const std::uint64_t before = allocation_count();
  sim.schedule_in(1.0, [big] { (void)big; });
  const std::uint64_t after = allocation_count();
  EXPECT_GE(after - before, 1u);
  sim.run();
}

} // namespace
} // namespace spindown::des
