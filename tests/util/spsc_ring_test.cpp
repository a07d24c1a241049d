// Tests for util/spsc_ring.h — the lock-free SPSC ring under the fleet
// pipeline (sys/fleet.cpp).  The boundary tests run single-threaded (the
// ring's invariants are sequential facts); the stress tests run a real
// producer/consumer pair and are part of the TSan CI job, which is where
// the acquire/release protocol is actually audited.

#include "util/spsc_ring.h"

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <numeric>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace spindown::util {
namespace {

TEST(SpscRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpscRing<int>{1}.capacity(), 2u);
  EXPECT_EQ(SpscRing<int>{2}.capacity(), 2u);
  EXPECT_EQ(SpscRing<int>{3}.capacity(), 4u);
  EXPECT_EQ(SpscRing<int>{16}.capacity(), 16u);
  EXPECT_EQ(SpscRing<int>{17}.capacity(), 32u);
}

TEST(SpscRing, PushPopRoundTripsInFifoOrder) {
  SpscRing<int> ring{4};
  for (int v : {10, 20, 30}) {
    int value = v;
    EXPECT_TRUE(ring.try_push(value));
  }
  EXPECT_EQ(ring.size(), 3u);
  int out = 0;
  EXPECT_TRUE(ring.try_pop(out));
  EXPECT_EQ(out, 10);
  EXPECT_TRUE(ring.try_pop(out));
  EXPECT_EQ(out, 20);
  EXPECT_TRUE(ring.try_pop(out));
  EXPECT_EQ(out, 30);
  EXPECT_TRUE(ring.empty());
}

TEST(SpscRing, TryPopOnEmptyFailsWithoutTouchingOut) {
  SpscRing<int> ring{4};
  int out = 42;
  EXPECT_FALSE(ring.try_pop(out));
  EXPECT_EQ(out, 42);
}

TEST(SpscRing, TryPushOnFullFailsWithoutConsumingValue) {
  SpscRing<std::unique_ptr<int>> ring{2};
  auto a = std::make_unique<int>(1);
  auto b = std::make_unique<int>(2);
  auto c = std::make_unique<int>(3);
  EXPECT_TRUE(ring.try_push(a));
  EXPECT_TRUE(ring.try_push(b));
  EXPECT_EQ(a, nullptr); // moved from on success
  EXPECT_FALSE(ring.try_push(c));
  ASSERT_NE(c, nullptr); // untouched on failure
  EXPECT_EQ(*c, 3);
  EXPECT_EQ(ring.size(), ring.capacity());
}

TEST(SpscRing, WrapsAroundManyTimesWithoutLoss) {
  SpscRing<std::uint64_t> ring{4}; // capacity 4; cursors wrap every lap
  std::uint64_t next_out = 0;
  for (std::uint64_t v = 0; v < 10'000; ++v) {
    std::uint64_t value = v;
    ASSERT_TRUE(ring.try_push(value));
    if ((v & 1) == 0) continue; // drain two at a time, half a lap behind
    std::uint64_t out = 0;
    ASSERT_TRUE(ring.try_pop(out));
    ASSERT_EQ(out, next_out++);
    ASSERT_TRUE(ring.try_pop(out));
    ASSERT_EQ(out, next_out++);
  }
  EXPECT_TRUE(ring.empty());
}

TEST(SpscRing, AlternatingFillDrainAtFullBoundary) {
  SpscRing<int> ring{4};
  for (int lap = 0; lap < 100; ++lap) {
    for (int v = 0; v < 4; ++v) {
      int value = lap * 4 + v;
      ASSERT_TRUE(ring.try_push(value));
    }
    int overflow = -1;
    ASSERT_FALSE(ring.try_push(overflow));
    for (int v = 0; v < 4; ++v) {
      int out = -1;
      ASSERT_TRUE(ring.try_pop(out));
      ASSERT_EQ(out, lap * 4 + v);
    }
    ASSERT_TRUE(ring.empty());
  }
}

TEST(SpscRing, BlockingPushReturnsFalseOnceClosed) {
  SpscRing<int> ring{2};
  ring.close();
  EXPECT_FALSE(ring.push(7));
}

TEST(SpscRing, BlockingPopDrainsElementsPushedBeforeClose) {
  SpscRing<int> ring{4};
  int value = 5;
  ASSERT_TRUE(ring.try_push(value));
  ring.close();
  int out = 0;
  EXPECT_TRUE(ring.pop(out)); // pre-close elements still delivered
  EXPECT_EQ(out, 5);
  EXPECT_FALSE(ring.pop(out)); // drained + closed
}

TEST(SpscRing, CloseIsIdempotent) {
  SpscRing<int> ring{2};
  ring.close();
  ring.close();
  EXPECT_TRUE(ring.closed());
}

// Cross-thread stress: a dedicated producer and consumer hammer a small
// ring so the cursors wrap thousands of times and both full and empty
// boundaries are hit constantly.  Checks FIFO order and a value checksum;
// under -DSPINDOWN_TSAN this is the data-race audit of the
// acquire/release protocol.
TEST(SpscRingStress, ProducerConsumerFifoUnderContention) {
  constexpr std::uint64_t kCount = 200'000;
  SpscRing<std::uint64_t> ring{8};
  std::uint64_t sum = 0;
  std::uint64_t received = 0;
  bool ordered = true;
  std::thread consumer{[&] {
    std::uint64_t expect = 0;
    std::uint64_t out = 0;
    while (ring.pop(out)) {
      ordered = ordered && out == expect;
      ++expect;
      sum += out;
      ++received;
    }
  }};
  for (std::uint64_t v = 0; v < kCount; ++v) {
    ASSERT_TRUE(ring.push(v));
  }
  ring.close();
  consumer.join();
  EXPECT_TRUE(ordered);
  EXPECT_EQ(received, kCount);
  EXPECT_EQ(sum, kCount * (kCount - 1) / 2);
}

// Shutdown under load: close() arrives from the producer side while the
// consumer is mid-stream.  The consumer must observe every pre-close
// element and then terminate — no hang, no loss, no spurious extras.
TEST(SpscRingStress, CloseMidStreamDeliversExactlyThePushedPrefix) {
  constexpr std::uint64_t kCount = 50'000;
  SpscRing<std::uint64_t> ring{16};
  std::uint64_t received = 0;
  bool ordered = true;
  std::thread consumer{[&] {
    std::uint64_t out = 0;
    std::uint64_t expect = 0;
    while (ring.pop(out)) {
      ordered = ordered && out == expect;
      ++expect;
      ++received;
    }
  }};
  std::uint64_t pushed = 0;
  for (std::uint64_t v = 0; v < kCount; ++v) {
    if (!ring.push(v)) break;
    ++pushed;
  }
  ring.close();
  consumer.join();
  EXPECT_TRUE(ordered);
  EXPECT_EQ(received, pushed);
  EXPECT_EQ(pushed, kCount); // nothing closed the ring early
}

// Two rings in the fleet's recycle topology: `full` carries pointers one
// way, `free` returns them.  The pointer payloads must never be observed
// torn or duplicated — each arena is owned by exactly one side at a time.
TEST(SpscRingStress, RecycleLoopNeverDuplicatesAnArena) {
  constexpr int kArenas = 4;
  constexpr std::uint64_t kLaps = 100'000;
  SpscRing<int*> full{kArenas};
  SpscRing<int*> free_ring{kArenas};
  std::vector<int> arenas(kArenas, 0);
  for (auto& arena : arenas) {
    int* p = &arena;
    ASSERT_TRUE(free_ring.try_push(p));
  }
  bool valid = true;
  std::thread worker{[&] {
    int* arena = nullptr;
    while (full.pop(arena)) {
      valid = valid && arena >= arenas.data() &&
              arena < arenas.data() + kArenas;
      *arena += 1; // consumer-side write: TSan sees it if ownership races
      // Recycle with try_push, exactly like the fleet worker: capacity ==
      // arena count so it cannot be full, and unlike blocking push it
      // still recycles after close() so the pre-close tail in `full`
      // keeps draining.
      free_ring.try_push(arena);
    }
  }};
  for (std::uint64_t lap = 0; lap < kLaps; ++lap) {
    int* arena = nullptr;
    ASSERT_TRUE(free_ring.pop(arena));
    ASSERT_TRUE(full.push(arena));
  }
  full.close();
  free_ring.close();
  worker.join();
  EXPECT_TRUE(valid);
  // Every lap incremented exactly one arena exactly once.
  const std::uint64_t total =
      std::accumulate(arenas.begin(), arenas.end(), std::uint64_t{0});
  EXPECT_EQ(total, kLaps);
}

// Park/wake: a blocked push/pop spins briefly, then parks on a futex.  Each
// test waits until the blocked side has registered as parked, then wakes
// it from another thread through the one path under test.  A lost wake-up
// hangs the test instead of passing it.

/// Turns a lost wake-up into a test failure instead of a hang: unless
/// disarmed within 20 s, runs `unblock` (which closes the rings, so a
/// stranded push/pop returns) and records that it fired.
class Watchdog {
public:
  explicit Watchdog(std::function<void()> unblock)
      : thread_{[this, unblock = std::move(unblock)] {
          std::unique_lock lock{mu_};
          if (!cv_.wait_for(lock, std::chrono::seconds{20},
                            [this] { return disarmed_; })) {
            fired_ = true;
            unblock();
          }
        }} {}
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;
  ~Watchdog() {
    disarm();
    thread_.join();
  }

  /// Stops the countdown; returns true when the watchdog had already fired.
  bool disarm() {
    std::lock_guard lock{mu_};
    disarmed_ = true;
    cv_.notify_one();
    return fired_;
  }

private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool disarmed_ = false;
  bool fired_ = false;
  std::thread thread_;
};

/// Spin (off-core) until `ring` reports a parked waiter.
template <typename T>
void await_parked(const SpscRing<T>& ring) {
  while (ring.parked() == 0) std::this_thread::yield();
}

TEST(SpscRingPark, ParkedPopIsWokenByTryPush) {
  SpscRing<int> ring{2};
  int out = 0;
  bool got = false;
  std::thread consumer{[&] { got = ring.pop(out); }};
  await_parked(ring);
  Watchdog dog{[&] { ring.close(); }};
  int value = 41;
  ASSERT_TRUE(ring.try_push(value));
  consumer.join();
  EXPECT_FALSE(dog.disarm()) << "lost wake-up";
  EXPECT_TRUE(got);
  EXPECT_EQ(out, 41);
  EXPECT_EQ(ring.parked(), 0u);
}

TEST(SpscRingPark, ParkedPushIsWokenByTryPop) {
  SpscRing<int> ring{2};
  for (int v : {1, 2}) {
    int value = v;
    ASSERT_TRUE(ring.try_push(value));
  }
  bool pushed = false;
  std::thread producer{[&] { pushed = ring.push(3); }};
  await_parked(ring);
  Watchdog dog{[&] { ring.close(); }};
  int out = 0;
  ASSERT_TRUE(ring.try_pop(out));
  EXPECT_EQ(out, 1);
  producer.join();
  EXPECT_FALSE(dog.disarm()) << "lost wake-up";
  EXPECT_TRUE(pushed);
  for (int want : {2, 3}) {
    ASSERT_TRUE(ring.try_pop(out));
    EXPECT_EQ(out, want);
  }
  EXPECT_TRUE(ring.empty());
}

TEST(SpscRingPark, CloseWakesAParkedPop) {
  SpscRing<int> ring{2};
  bool got = true;
  std::thread consumer{[&] {
    int out = 0;
    got = ring.pop(out);
  }};
  await_parked(ring);
  ring.close();
  consumer.join();
  EXPECT_FALSE(got); // closed and drained
}

TEST(SpscRingPark, CloseWakesAParkedPush) {
  SpscRing<int> ring{2};
  for (int v : {1, 2}) {
    int value = v;
    ASSERT_TRUE(ring.try_push(value));
  }
  bool pushed = true;
  std::thread producer{[&] { pushed = ring.push(3); }};
  await_parked(ring);
  ring.close();
  producer.join();
  EXPECT_FALSE(pushed);
  EXPECT_EQ(ring.size(), 2u); // the refused value never landed
}

// Ping-pong at the smallest capacity: every round trip hands the turn to
// the other thread, so each side repeatedly runs dry and parks (or is
// about to) while the peer publishes.  100k rounds with no hang is the
// lost-wake-up regression.
TEST(SpscRingPark, PingPongAtCapacityTwoLosesNoWakeUp) {
  constexpr std::uint64_t kRounds = 100'000;
  SpscRing<std::uint64_t> ping{2};
  SpscRing<std::uint64_t> pong{2};
  Watchdog dog{[&] {
    ping.close();
    pong.close();
  }};
  std::thread echo{[&] {
    std::uint64_t v = 0;
    while (ping.pop(v)) {
      if (!pong.push(v + 1)) return;
    }
  }};
  std::uint64_t sum = 0;
  bool ordered = true;
  std::uint64_t rounds = 0;
  for (; rounds < kRounds; ++rounds) {
    std::uint64_t back = 0;
    if (!ping.push(rounds) || !pong.pop(back)) break; // watchdog fired
    ordered = ordered && back == rounds + 1;
    sum += back;
  }
  ping.close();
  echo.join();
  EXPECT_FALSE(dog.disarm()) << "lost wake-up after " << rounds << " rounds";
  EXPECT_EQ(rounds, kRounds);
  EXPECT_TRUE(ordered);
  EXPECT_EQ(sum, kRounds * (kRounds + 1) / 2);
}

} // namespace
} // namespace spindown::util
