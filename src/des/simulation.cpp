#include "des/simulation.h"

#include <cassert>
#include <stdexcept>

namespace spindown::des {

std::uint32_t Simulation::acquire_slot() {
  if (free_head_ != kNoSlot) {
    const std::uint32_t slot = free_head_;
    free_head_ = nodes_[slot].next_free;
    return slot;
  }
  if (nodes_.size() > kSlotMask) {
    throw std::length_error{
        "Simulation: more than 2^24 concurrently pending events"};
  }
  nodes_.emplace_back();
  return static_cast<std::uint32_t>(nodes_.size() - 1);
}

void Simulation::recycle(std::uint32_t slot) {
  Node& n = nodes_[slot];
  n.fn.reset();
  n.next_free = free_head_;
  free_head_ = slot;
}

void Simulation::schedule_at(SimTime t, Callback fn) {
  if (t < now_) throw std::invalid_argument{"schedule_at: time in the past"};
  if (next_seq_ > kMaxSeq) {
    throw std::length_error{
        "Simulation: event sequence space exhausted (2^40 events)"};
  }
  const std::uint32_t slot = acquire_slot();
  nodes_[slot].fn = std::move(fn);
  queue_.push(Key{t, (next_seq_++ << 24) | slot});
}

void Simulation::schedule_in(SimTime delay, Callback fn) {
  if (delay < 0.0) throw std::invalid_argument{"schedule_in: negative delay"};
  schedule_at(now_ + delay, std::move(fn));
}

bool Simulation::step() {
  if (queue_.empty()) return false;
  const Key key = queue_.pop();
  const std::uint32_t slot = key.slot();
  Node& n = nodes_[slot];
  assert(key.time >= now_);
  now_ = key.time;
  // Move the callback out and recycle the slot *before* firing, so the
  // callback may schedule new events (possibly into this very slot, or
  // growing the slab) freely.
  Callback fn = std::move(n.fn);
  recycle(slot);
  ++executed_;
  fn();
  return true;
}

void Simulation::run_until(SimTime t) {
  while (!queue_.empty() && queue_.top().time <= t) {
    step();
  }
  if (t > now_) now_ = t;
}

void Simulation::run() {
  while (step()) {
  }
}

void Simulation::reserve(std::size_t events) {
  nodes_.reserve(events);
  queue_.reserve(events);
}

} // namespace spindown::des
