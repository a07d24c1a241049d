// spsc_ring.h — fixed-capacity lock-free single-producer/single-consumer
// ring buffer.
//
// The fleet pipeline (sys/fleet.cpp) hands work between its threads over
// these: arrival chunks from the feeder to the router, pre-routed
// submission batches from the router to each shard worker, and, on a
// second ring per direction, the drained arenas back.  The steady-state
// transfer is two atomic operations — a store of the producer's cursor, a
// load of it by the consumer — with head and tail on separate cache lines
// so neither side ping-pongs the other's cursor.  Each side
// additionally caches its last view of the opposite cursor, so a push/pop
// only touches the shared counter it owns until the cached view says the
// ring might be full/empty.
//
// try_push/try_pop never block.  The blocking push/pop wrappers spin
// briefly (the common stall is the peer being one item behind), then park
// the thread on a futex (std::atomic::wait on a 32-bit signal word) until
// the peer moves a cursor or the ring closes, so an idle pipeline stage
// costs no CPU.  A waiter count lets try_push/try_pop skip the wake-up
// system call when nobody is parked.  No wake-up is lost because both
// sides run a seq_cst handshake: the waiter registers, then re-reads the
// peer's cursor; the peer moves its cursor, then reads the waiter count.
// In the single total order of seq_cst operations one of the two reads
// comes second and sees the other side's write.  (The handshake uses
// seq_cst accesses rather than standalone fences, which ThreadSanitizer
// does not model and GCC rejects under -fsanitize=thread.)  push/pop
// return false once close() has been called (and, for pop, the ring has
// drained), which is the shutdown/abort path.  close() may be called by
// either side or by a third thread, and always wakes every parked waiter.
//
// Determinism: this header is pure synchronization — no wall-clock reads,
// no ambient entropy, no timed waits — so anything built on it stays
// bit-deterministic as long as the *values* transferred do not depend on
// timing.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

namespace spindown::util {

/// Destructive-interference padding.  std::hardware_destructive_
/// interference_size is ABI-unstable (GCC warns when it leaks into public
/// headers), so pin the conventional 64-byte line.
inline constexpr std::size_t kCacheLineSize = 64;

template <typename T>
class SpscRing {
public:
  /// Capacity is rounded up to a power of two (minimum 2) so the cursor
  /// arithmetic is a mask, never a modulo.
  explicit SpscRing(std::size_t min_capacity) {
    std::size_t cap = 2;
    while (cap < min_capacity) {
      if (cap > (std::size_t{1} << 62)) {
        throw std::invalid_argument{"SpscRing: capacity overflow"};
      }
      cap <<= 1;
    }
    slots_.resize(cap);
    mask_ = cap - 1;
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  std::size_t capacity() const { return mask_ + 1; }

  /// Occupancy snapshot; exact only when neither side is mid-operation.
  std::size_t size() const {
    const auto tail = tail_.load(std::memory_order_acquire);
    const auto head = head_.load(std::memory_order_acquire);
    return static_cast<std::size_t>(tail - head);
  }

  bool empty() const { return size() == 0; }

  /// Producer side.  Moves from `value` and returns true when a slot is
  /// free (waking a consumer parked in pop()); leaves `value` untouched and
  /// returns false when the ring is full.  Never blocks.
  bool try_push(T& value) {
    const auto tail = tail_.load(std::memory_order_relaxed);
    if (tail - head_cache_ > mask_) {
      head_cache_ = head_.load(std::memory_order_seq_cst);
      if (tail - head_cache_ > mask_) return false;
    }
    slots_[static_cast<std::size_t>(tail) & mask_] = std::move(value);
    tail_.store(tail + 1, std::memory_order_seq_cst);
    wake_parked();
    return true;
  }

  /// Consumer side.  Moves the oldest element into `out` and returns true
  /// (waking a producer parked in push()); returns false when the ring is
  /// empty.  Never blocks.
  bool try_pop(T& out) {
    const auto head = head_.load(std::memory_order_relaxed);
    if (head == tail_cache_) {
      tail_cache_ = tail_.load(std::memory_order_seq_cst);
      if (head == tail_cache_) return false;
    }
    out = std::move(slots_[static_cast<std::size_t>(head) & mask_]);
    head_.store(head + 1, std::memory_order_seq_cst);
    wake_parked();
    return true;
  }

  /// Blocking push: spins briefly, then parks until a slot frees up.
  /// Returns false — without consuming `value` — once the ring is closed.
  bool push(T value) {
    return wait_for([&] { return try_push(value); }, [&] { return closed(); });
  }

  /// Blocking pop: spins briefly, then parks until an element arrives.
  /// Returns false once the ring is closed *and* drained — elements pushed
  /// before close() are still delivered.
  bool pop(T& out) {
    return wait_for([&] { return try_pop(out); },
                    [&] { return closed() && empty(); });
  }

  /// Shutdown/abort signal: wakes every parked push/pop (they return
  /// false).  Idempotent; callable from any thread.
  void close() {
    closed_.store(true, std::memory_order_seq_cst);
    signal_.fetch_add(1, std::memory_order_seq_cst);
    signal_.notify_all();
  }

  bool closed() const { return closed_.load(std::memory_order_seq_cst); }

  /// Threads currently parked (or about to park) in push/pop: a snapshot
  /// for diagnostics and tests.
  std::uint32_t parked() const {
    return waiters_.load(std::memory_order_acquire);
  }

private:
  /// Busy retries before a blocked push/pop parks: enough to ride out a
  /// peer that is mid-item, far too few to burn a timeslice.
  static constexpr std::uint32_t kSpinTries = 64;

  static void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
  }

  /// Retry `attempt` until it succeeds (true) or `gave_up` holds (false,
  /// checked first, so a closed ring never accepts a push): a short spin,
  /// then futex parks on signal_.  The waiter reads the signal, registers,
  /// and re-checks before sleeping; the peer reads the waiter count after
  /// moving its cursor (wake_parked), so either the re-check sees the move
  /// or the peer sees the waiter and bumps the signal past the value this
  /// thread sleeps on.  close() likewise bumps the signal after setting
  /// the flag the re-check reads.
  template <typename Attempt, typename GaveUp>
  bool wait_for(Attempt&& attempt, GaveUp&& gave_up) {
    for (std::uint32_t spins = 0;; ++spins) {
      if (gave_up()) return false;
      if (attempt()) return true;
      if (spins < kSpinTries) {
        cpu_relax();
        continue;
      }
      const std::uint32_t seen = signal_.load(std::memory_order_seq_cst);
      waiters_.fetch_add(1, std::memory_order_seq_cst);
      const bool stop = gave_up();
      const bool done = !stop && attempt();
      if (!stop && !done) signal_.wait(seen, std::memory_order_seq_cst);
      waiters_.fetch_sub(1, std::memory_order_seq_cst);
      if (stop) return false;
      if (done) return true;
    }
  }

  /// Called after every (seq_cst) cursor move: wake the peer only if it is
  /// parked.
  void wake_parked() {
    if (waiters_.load(std::memory_order_seq_cst) == 0) return;
    signal_.fetch_add(1, std::memory_order_seq_cst);
    signal_.notify_all();
  }

  std::vector<T> slots_;
  std::size_t mask_ = 1;
  /// Producer cursor plus the producer's cached view of the consumer's.
  alignas(kCacheLineSize) std::atomic<std::uint64_t> tail_{0};
  alignas(kCacheLineSize) std::uint64_t head_cache_ = 0;
  /// Consumer cursor plus the consumer's cached view of the producer's.
  alignas(kCacheLineSize) std::atomic<std::uint64_t> head_{0};
  alignas(kCacheLineSize) std::uint64_t tail_cache_ = 0;
  alignas(kCacheLineSize) std::atomic<bool> closed_{false};
  /// Park/wake word: bumped by every wake-up, so a parked thread's
  /// expected value goes stale the moment there is something to re-check.
  std::atomic<std::uint32_t> signal_{0};
  std::atomic<std::uint32_t> waiters_{0}; ///< threads parked (or parking)
};

} // namespace spindown::util
