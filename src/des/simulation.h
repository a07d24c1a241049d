// simulation.h — discrete-event simulation kernel.
//
// This is the C++ substitute for the SimPy environment the paper's original
// study used.  The kernel is a pooled event calendar built for throughput
// (every figure is a parameter sweep over millions of events, so events/sec
// multiplies everything):
//
//   * events are (time, sequence) pairs with a callback; ties in time are
//     broken by insertion order, so runs are fully deterministic,
//   * event nodes live in a slab recycled through a free list, callbacks are
//     InlineFunctions (64-byte small-buffer storage), and the calendar is a
//     4-ary min-heap of 16-byte (time, seq|slot) keys — so the steady-state
//     schedule -> fire -> recycle cycle performs zero heap allocations,
//   * there is no cancellation: every scheduled event runs.  The disk
//     schedules only events that are certain to happen (a completion, the
//     end of a spin-up) and resolves its idle timeline lazily (disk.h), so
//     nothing ever needs to be taken back off the calendar.
//
// The kernel is intentionally single-threaded: determinism and simplicity
// beat parallelism at this scale (a 720-hour NERSC replay is ~10^6 events).
// Parallelism lives one level up: sys/fleet.h gives each disk group its own
// calendar, and sys/sweep.h runs independent experiment configurations on a
// thread pool.
//
// Capacity bounds (both enforced with a clear throw, both far beyond any
// simulated experiment): at most 2^24 (16.7M) concurrently pending events,
// and at most 2^40 (~1.1e12) scheduled events per Simulation lifetime — the
// calendar key packs (sequence, slot) into one 64-bit word so the FIFO
// tie-break costs a single integer compare.
//
// bench/engine_throughput.cpp measures this kernel against the previous
// std::priority_queue + std::function + unordered_set design and records
// the baseline in BENCH_engine.json.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/binary_heap.h"
#include "util/inline_function.h"

namespace spindown::des {

using SimTime = double;

/// Scheduled-event callback.  The 64-byte inline buffer covers every capture
/// in the simulator's hot path (a `this` pointer plus a few scalars);
/// larger captures still work but heap-allocate.
using Callback = util::InlineFunction<void(), 64>;

class Simulation {
public:
  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Current simulation clock (seconds).
  SimTime now() const { return now_; }

  /// Schedule `fn` to run at absolute time `t` (>= now).
  void schedule_at(SimTime t, Callback fn);

  /// Schedule `fn` to run `delay` seconds from now (delay >= 0).
  void schedule_in(SimTime delay, Callback fn);

  /// Run a single event.  Returns false if the calendar is empty.
  bool step();

  /// Run events until the calendar empties or the next event is past `t`;
  /// the clock is then advanced to exactly `t`.
  void run_until(SimTime t);

  /// Drain the calendar completely.
  void run();

  /// Pre-size the node slab and calendar so the first `events` concurrently
  /// pending events never reallocate.
  void reserve(std::size_t events);

  /// Number of pending events (scheduled, not yet run).
  std::size_t pending() const { return queue_.size(); }

  /// Total events executed so far (for tests and engine statistics).
  std::uint64_t executed() const { return executed_; }

  /// Slots currently allocated in the node slab (capacity telemetry).
  std::size_t slab_size() const { return nodes_.size(); }

private:
  /// One slab entry: a pending callback, or a link in the free list.
  struct Node {
    Callback fn;
    std::uint32_t next_free = kNoSlot;
  };

  /// Calendar key: 16 bytes so a 4-ary node's children pack into one cache
  /// line.  `packed` carries the FIFO tie-break sequence in its upper 40
  /// bits and the slab slot in its lower 24, so same-time keys order by
  /// insertion with a single integer compare — no slab probe in the
  /// comparator, which matters because same-time events (zero-delay grants,
  /// spawns, batched timers) are common.
  struct Key {
    SimTime time;
    std::uint64_t packed;

    std::uint32_t slot() const {
      return static_cast<std::uint32_t>(packed & kSlotMask);
    }
  };
  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.packed > b.packed;
    }
  };

  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  static constexpr std::uint64_t kSlotMask = (1ull << 24) - 1;   // 16.7M slots
  static constexpr std::uint64_t kMaxSeq = (1ull << 40) - 1;     // ~1.1e12

  std::uint32_t acquire_slot();
  void recycle(std::uint32_t slot);

  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::vector<Node> nodes_;
  std::uint32_t free_head_ = kNoSlot;
  util::BinaryHeap<Key, Later, 4> queue_;
};

} // namespace spindown::des
