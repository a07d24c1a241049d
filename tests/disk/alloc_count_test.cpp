// alloc_count_test.cpp — proves the steady-state request path (arrival
// generation, a disk's submit/settle cycle with its response books, the
// front cache) is allocation-free.
//
// The file replaces the global operator new/delete with counting versions
// (they still allocate through std::malloc, so ASan keeps seeing every
// allocation).  The override is binary-wide, which is harmless for the other
// suites in this binary: they only gain a relaxed atomic increment per
// allocation.
//
// Methodology: warm the structure up past its growth phase, snapshot the
// counter, run a large number of cycles, and require the counter delta to
// be exactly zero.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <functional>
#include <new>

#include "cache/recency.h"
#include "disk/disk.h"
#include "disk/io_scheduler.h"
#include "disk/spin_policy.h"
#include "obs/trace.h"
#include "stats/histogram.h"
#include "util/units.h"
#include "workload/stream.h"

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

namespace spindown::disk {
namespace {

std::uint64_t allocation_count() {
  return g_news.load(std::memory_order_relaxed);
}

/// An open loop through one disk: `n` requests arrive in time order, four
/// at a quarter of a service time apart and then one after a pause of six
/// service times, so the queue builds up to a few requests and drains to
/// idle in every round.  Between arrivals the disk is settled on its own,
/// which completes requests and books their responses.  Counts the
/// allocations from request `measure_at` to the final drain (once warm:
/// the queue's and the batch's grow-only storage is sized by then).
std::uint64_t run_open_loop(Disk& disk, std::uint64_t n,
                            std::uint64_t measure_at) {
  const util::Bytes bytes = 100 * util::kBlockBytes;
  const double svc = disk.params().service_time(bytes);
  std::uint64_t before = 0;
  std::uint64_t lba = 0;
  double t = 0.0;
  for (std::uint64_t i = 0; i < n; ++i) {
    if (i == measure_at) before = allocation_count();
    lba = (lba + 4096) % 1'000'000;
    disk.submit(t, i, bytes, lba);
    const double gap = i % 5 == 4 ? 6.0 * svc : 0.25 * svc;
    disk.settle(t + 0.5 * gap);
    t += gap;
  }
  disk.settle_all();
  return allocation_count() - before;
}

// The request path through the disk: submit -> completion (settled lazily)
// -> response books (the Welford and an attached histogram) -> next batch
// or idle.  With the queue's grow-only storage the whole cycle must be
// allocation-free once warm, end to end.
void run_disk_cycle_test(Discipline kind) {
  Disk disk{0, DiskParams::st3500630as(),
            std::make_unique<NeverSpinDownPolicy>(), util::Rng{1},
            IoQueue{kind}};
  stats::LinearHistogram hist{0.0, 1.0, 1000};
  disk.set_response_histogram(&hist);
  EXPECT_EQ(run_open_loop(disk, 20'000, /*measure_at=*/18'000), 0u);
  const auto m = disk.metrics(disk.settle_all());
  EXPECT_EQ(m.served, 20'000u);
  EXPECT_EQ(m.response.count(), 20'000u);
  EXPECT_EQ(hist.total(), 20'000u);
  // The loop really queued (a response of several services) and drained
  // (an idle period per round).
  EXPECT_GT(m.response.max(), 2.0 * m.response.min());
  EXPECT_GE(m.idle_periods.total(), 20'000u / 5);
}

TEST(AllocCount, DiskSubmitCompleteCycleIsAllocationFreeFcfs) {
  run_disk_cycle_test(Discipline::kFcfs);
}

TEST(AllocCount, DiskSubmitCompleteCycleIsAllocationFreeSstf) {
  run_disk_cycle_test(Discipline::kSstf);
}

TEST(AllocCount, DiskSubmitCompleteCycleIsAllocationFreeScan) {
  run_disk_cycle_test(Discipline::kScan);
}

TEST(AllocCount, DiskSubmitCompleteCycleIsAllocationFreeClook) {
  run_disk_cycle_test(Discipline::kClook);
}

TEST(AllocCount, DiskSubmitCompleteCycleIsAllocationFreeBatch) {
  run_disk_cycle_test(Discipline::kBatch);
}

// The same disk cycle with observability wired but OFF: a Disk holding a
// null TraceBuffer pointer (the obs=off path is a branch on that null) must
// stay exactly as allocation-free as an untraced disk.
TEST(AllocCount, DiskCycleWithObsOffIsAllocationFree) {
  Disk disk{0, DiskParams::st3500630as(),
            std::make_unique<NeverSpinDownPolicy>(), util::Rng{1}};
  disk.set_trace(nullptr); // obs=off: explicit null sink
  EXPECT_EQ(run_open_loop(disk, 20'000, /*measure_at=*/18'000), 0u);
}

// Tracing into a pre-reserved buffer: the emit path is a bounds-checked
// push_back, so once the buffer holds enough capacity the traced steady
// state allocates nothing either.
TEST(AllocCount, DiskCycleTracingIntoReservedBufferIsAllocationFree) {
  obs::TraceBuffer trace{obs::kind_bit(obs::Kind::kSpan) |
                         obs::kind_bit(obs::Kind::kPower)};
  // 5 span edges plus up to 3 power transitions per request.
  trace.reserve(10 * 21'000);
  Disk disk{0, DiskParams::st3500630as(),
            std::make_unique<NeverSpinDownPolicy>(), util::Rng{1}};
  disk.set_trace(&trace);
  EXPECT_EQ(run_open_loop(disk, 20'000, /*measure_at=*/18'000), 0u);
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

TEST(AllocCount, StreamFillIsAllocationFree) {
  // The feeder's loop: one request buffer, sized in advance, refilled a
  // chunk at a time from a Zipf stream over a thinned (NHPP) process.
  std::vector<spindown::workload::FileInfo> files;
  for (spindown::workload::FileId i = 0; i < 5000; ++i) {
    files.push_back({i, 100, 1.0 / static_cast<double>(i + 1)});
  }
  const spindown::workload::FileCatalog catalog{files};
  spindown::workload::ArrivalZipfStream stream{
      catalog,
      std::make_unique<spindown::workload::PiecewiseRateArrivals>(
          std::vector<spindown::workload::RateSegment>{{0.0, 50.0},
                                                       {30.0, 400.0}},
          60.0),
      1e6, spindown::util::Rng{5}};
  std::vector<spindown::workload::Request> buf(4096);
  ASSERT_EQ(stream.fill(buf), buf.size()); // first call: sizes the coins
  const std::uint64_t before = allocation_count();
  std::uint64_t drawn = 0;
  for (int chunk = 0; chunk < 100; ++chunk) drawn += stream.fill(buf);
  const std::uint64_t after = allocation_count();
  EXPECT_EQ(after - before, 0u);
  EXPECT_EQ(drawn, 100u * buf.size());
}

TEST(AllocCount, OversizedCaptureDoesAllocate) {
  // Sanity check that the counter actually observes a heap allocation: a
  // 128-byte capture does not fit std::function's small buffer.
  struct Big {
    char blob[128];
  };
  Big big{};
  const std::uint64_t before = allocation_count();
  std::function<void()> f{[big] { (void)big; }};
  const std::uint64_t after = allocation_count();
  EXPECT_GE(after - before, 1u);
  f();
}

} // namespace
} // namespace spindown::disk
