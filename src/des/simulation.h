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
//   * scheduling returns a generation-counted handle for cancellation (used
//     by the disk's idleness timer, which is disarmed whenever a request
//     arrives).  Cancellation removes the calendar key eagerly — each node
//     tracks its key's heap position via the heap's move observer — so the
//     calendar only ever holds live events; since a not-yet-due timer sits
//     in a leaf, removal is O(1) in practice.  A stale handle — already
//     fired, already cancelled, or its slot since reused — can never cancel
//     anything.
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

/// Identifies a scheduled event for cancellation.  Default-constructed
/// handles are inert ("no event").  A handle is a (slot, generation) pair:
/// the slot's generation is bumped every time it is recycled, so a handle
/// kept past its event's execution or cancellation stops matching.  (The
/// generation is 32-bit: a handle hoarded across 2^32 reuses of one slot
/// would match again; callers clear or overwrite handles long before that.)
class EventHandle {
public:
  EventHandle() = default;
  bool valid() const { return generation_ != 0; }

private:
  friend class Simulation;
  EventHandle(std::uint32_t slot, std::uint32_t generation)
      : slot_(slot), generation_(generation) {}
  std::uint32_t slot_ = 0;
  std::uint32_t generation_ = 0; // 0 is the inert handle
};

class Simulation {
public:
  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Current simulation clock (seconds).
  SimTime now() const { return now_; }

  /// Schedule `fn` to run at absolute time `t` (>= now).
  EventHandle schedule_at(SimTime t, Callback fn);

  /// Schedule `fn` to run `delay` seconds from now (delay >= 0).
  EventHandle schedule_in(SimTime delay, Callback fn);

  /// Cancel a pending event: the callback (and its captures) is destroyed
  /// and the calendar key removed immediately.  O(heap depth) worst case,
  /// O(1) in practice (a not-yet-due event's key sits in a heap leaf).
  /// Returns false if the event already ran, was already cancelled, or the
  /// handle is inert/stale.
  bool cancel(EventHandle h);

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

  /// Number of live pending events (scheduled, not yet run, not cancelled).
  /// Exact: cancellation decrements the count immediately and stale cancels
  /// are rejected, so the count can never wrap.
  std::size_t pending() const { return live_; }

  /// Total events executed so far (for tests and engine statistics).
  std::uint64_t executed() const { return executed_; }

  /// Slots currently allocated in the node slab (capacity telemetry).
  std::size_t slab_size() const { return nodes_.size(); }

private:
  enum class NodeState : std::uint8_t { kFree, kScheduled };

  /// One slab entry.  `generation` makes handles safe across slot reuse;
  /// `heap_index` is the position of this event's key in the calendar heap,
  /// kept current by the heap's move observer so cancel() can remove the
  /// key in place.
  struct Node {
    Callback fn;
    std::uint32_t generation = 1;
    std::uint32_t next_free = kNoSlot;
    std::uint32_t heap_index = 0;
    NodeState state = NodeState::kFree;
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
  /// Heap move observer: records where each key settles so cancellation can
  /// find (and remove) it without searching.
  struct TrackIndex {
    std::vector<Node>* nodes;
    void operator()(const Key& k, std::size_t idx) const noexcept {
      (*nodes)[k.slot()].heap_index = static_cast<std::uint32_t>(idx);
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
  std::size_t live_ = 0;
  std::vector<Node> nodes_;
  std::uint32_t free_head_ = kNoSlot;
  util::BinaryHeap<Key, Later, 4, TrackIndex> queue_{Later{},
                                                     TrackIndex{&nodes_}};
};

} // namespace spindown::des
