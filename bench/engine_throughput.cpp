// engine_throughput.cpp — events/sec baseline for the DES kernel.
//
// Self-timed (std::chrono) microbench of the pooled event calendar against a
// faithful replica of the seed kernel (std::priority_queue of fat entries +
// std::function callbacks + unordered_set lazy cancellation), measured in
// the same run so the speedup is apples-to-apples on the same machine.
//
// Three profiles, shaped after the simulator's real hot paths:
//   * schedule-heavy — self-rescheduling event chains carrying a 24-byte
//     request payload (the shape of a calendar-scheduled arrival stream),
//   * cancel-heavy   — arm a 10 s timer, service a request, disarm the
//     timer (the fixed-threshold spin-down policy arms and disarms on every
//     request; this is the profile the ISSUE targets at >= 3x),
//   * replay-shaped  — a farm of disks with arrivals, service completions
//     and idle timers that mostly get disarmed, occasionally fire (the
//     NERSC trace replay shape).
//
// Usage:
//   engine_throughput [--quick] [--json <path>] [--seed <n>] [--reps <n>]
//
// --quick shrinks every profile to a smoke-test size (CI runs this to keep
// the binary from rotting; timing is not asserted).  --json writes the
// machine-readable baseline; BENCH_engine.json at the repo root is the
// committed snapshot regenerated via:
//   ./build/bench/engine_throughput --json BENCH_engine.json
#include <chrono>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <queue>
#include <string>
#include <unordered_set>
#include <vector>

#include "des/simulation.h"
#include "util/cli.h"
#include "util/rng.h"

namespace {

using namespace spindown;

// ---------------------------------------------------------------------------
// Replica of the seed kernel (pre-pooled-calendar), kept verbatim in spirit:
// binary priority_queue of (time, seq, id, std::function) entries and an
// unordered_set of cancelled ids pruned lazily at the head.

namespace legacy {

using SimTime = double;
using Callback = std::function<void()>;

class EventHandle {
public:
  EventHandle() = default;
  bool valid() const { return id_ != 0; }

private:
  friend class Simulation;
  explicit EventHandle(std::uint64_t id) : id_(id) {}
  std::uint64_t id_ = 0;
};

class Simulation {
public:
  SimTime now() const { return now_; }

  EventHandle schedule_at(SimTime t, Callback fn) {
    const std::uint64_t id = next_id_++;
    queue_.push(Entry{t, next_seq_++, id, std::move(fn)});
    return EventHandle{id};
  }

  EventHandle schedule_in(SimTime delay, Callback fn) {
    return schedule_at(now_ + delay, std::move(fn));
  }

  bool cancel(EventHandle h) {
    if (!h.valid() || h.id_ >= next_id_) return false;
    return cancelled_.insert(h.id_).second;
  }

  bool step() {
    prune_cancelled();
    if (queue_.empty()) return false;
    Entry e = std::move(const_cast<Entry&>(queue_.top()));
    queue_.pop();
    now_ = e.time;
    ++executed_;
    e.fn();
    return true;
  }

  void run_until(SimTime t) {
    for (;;) {
      prune_cancelled();
      if (queue_.empty() || queue_.top().time > t) break;
      step();
    }
    if (t > now_) now_ = t;
  }

  void run() {
    while (step()) {
    }
  }

  std::uint64_t executed() const { return executed_; }

private:
  struct Entry {
    SimTime time;
    std::uint64_t seq;
    std::uint64_t id;
    Callback fn;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  void prune_cancelled() {
    while (!queue_.empty()) {
      const auto it = cancelled_.find(queue_.top().id);
      if (it == cancelled_.end()) return;
      cancelled_.erase(it);
      queue_.pop();
    }
  }

  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_id_ = 1;
  std::uint64_t executed_ = 0;
  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
  std::unordered_set<std::uint64_t> cancelled_;
};

} // namespace legacy

template <class Sim>
struct HandleOf;
template <>
struct HandleOf<des::Simulation> {
  using type = des::EventHandle;
};
template <>
struct HandleOf<legacy::Simulation> {
  using type = legacy::EventHandle;
};

/// Mirrors the capture size of a calendar-scheduled arrival (`this` + a
/// by-value workload::Request): big enough that std::function
/// heap-allocates it, small enough that the pooled calendar stores it inline.
struct Payload {
  std::uint64_t id = 0;
  double arrival = 0.0;
  std::uint64_t bytes = 0;
};

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct ProfileResult {
  std::uint64_t events = 0;
  std::uint64_t cancels = 0;
  double wall_s = 0.0;

  double events_per_sec() const { return wall_s > 0 ? events / wall_s : 0.0; }
  double cancels_per_sec() const { return wall_s > 0 ? cancels / wall_s : 0.0; }
};

// ---------------------------------------------------------------------------
// Profiles (templated over the kernel).

template <class Sim>
ProfileResult schedule_heavy(std::uint64_t target_events, std::uint64_t seed) {
  Sim sim;
  util::Rng rng{seed};
  std::uint64_t remaining = target_events;

  struct Chain {
    Sim& sim;
    std::uint64_t& remaining;
    util::Rng rng;
    void fire(Payload p) {
      if (remaining == 0) return;
      --remaining;
      ++p.id;
      p.arrival = sim.now();
      sim.schedule_in(rng.uniform(0.001, 2.0),
                      [this, p] { fire(p); });
    }
  };

  constexpr std::uint64_t kChains = 256;
  std::vector<Chain> chains;
  chains.reserve(kChains);
  for (std::uint64_t c = 0; c < kChains; ++c) {
    chains.push_back(Chain{sim, remaining, rng.split()});
  }

  const auto t0 = std::chrono::steady_clock::now();
  for (auto& c : chains) c.fire(Payload{0, 0.0, 4096});
  sim.run();
  ProfileResult r;
  r.wall_s = seconds_since(t0);
  r.events = sim.executed();
  return r;
}

template <class Sim>
ProfileResult cancel_heavy(std::uint64_t cycles, std::uint64_t seed) {
  Sim sim;
  std::uint64_t fired = 0;
  (void)seed; // deterministic profile: the request pattern is fixed

  // The fixed-threshold spin-down discipline, distilled: every request
  // disarms the idle timer armed after the previous service and re-arms it,
  // so the cancel:execute ratio is 1:1.  Entirely event-driven — the whole
  // profile runs inside one sim.run(), like a real replay.
  struct Driver {
    Sim& sim;
    std::uint64_t remaining;
    std::uint64_t& fired;
    std::uint64_t cancels = 0;
    typename HandleOf<Sim>::type timer{};
    bool armed = false;
    Payload p{1, 0.0, 65536};

    void cycle() {
      if (armed && sim.cancel(timer)) {
        armed = false;
        ++cancels;
      }
      if (remaining-- == 0) return;
      timer = sim.schedule_in(10.0, [this] {
        armed = false;
        ++fired;
      });
      armed = true;
      ++p.id;
      sim.schedule_in(0.5, [this, q = p] {
        (void)q;
        cycle();
      });
    }
  };

  Driver d{sim, cycles, fired};
  const auto t0 = std::chrono::steady_clock::now();
  d.cycle();
  sim.run();
  ProfileResult r;
  r.wall_s = seconds_since(t0);
  r.events = sim.executed();
  r.cancels = d.cancels;
  return r;
}

constexpr double kReplayThreshold = 10.0; // idle-timer threshold (seconds)

template <class Sim>
ProfileResult replay_shaped(std::uint64_t target_arrivals, std::uint64_t seed) {
  Sim sim;
  util::Rng farm_rng{seed};
  using Handle = typename HandleOf<Sim>::type;

  struct DiskState {
    Handle timer{};
    bool armed = false;
  };

  struct Farm {
    Sim& sim;
    util::Rng rng;
    std::uint64_t remaining;
    std::uint64_t cancels = 0;
    std::uint64_t timer_fires = 0;
    std::vector<DiskState> disks;

    void arrival(std::uint32_t d, Payload p) {
      if (remaining == 0) return;
      --remaining;
      DiskState& disk = disks[d];
      if (disk.armed) {
        // Same discipline as disk.cpp: disarm the idle timer on arrival.
        sim.cancel(disk.timer);
        disk.armed = false;
        ++cancels;
      }
      sim.schedule_in(0.04 + rng.uniform(0.0, 0.02),
                      [this, d, p] { complete(d, p); });
    }

    void complete(std::uint32_t d, Payload p) {
      DiskState& disk = disks[d];
      disk.timer = sim.schedule_in(kReplayThreshold, [this, d] {
        disks[d].armed = false;
        ++timer_fires;
      });
      disk.armed = true;
      // Mostly short gaps (timer disarmed), occasionally a long one (timer
      // fires) — the NERSC replay's bursty arrival shape.
      const double gap =
          rng.uniform01() < 0.9 ? rng.uniform(0.1, 5.0)
                                : kReplayThreshold + rng.uniform(1.0, 30.0);
      ++p.id;
      sim.schedule_in(gap, [this, d, p] { arrival(d, p); });
    }
  };

  constexpr std::uint32_t kDisks = 64;
  Farm farm{sim, farm_rng.split(), target_arrivals, 0, 0, {}};
  farm.disks.resize(kDisks);

  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint32_t d = 0; d < kDisks; ++d) {
    const double gap = farm.rng.uniform(0.0, 2.0);
    Payload p{d, 0.0, 131072};
    sim.schedule_in(gap, [&farm, d, p] { farm.arrival(d, p); });
  }
  sim.run();
  ProfileResult r;
  r.wall_s = seconds_since(t0);
  r.events = sim.executed();
  r.cancels = farm.cancels;
  return r;
}

// ---------------------------------------------------------------------------
// Harness.

template <class Sim, class Fn>
ProfileResult best_of(unsigned reps, Fn&& profile) {
  ProfileResult best;
  for (unsigned i = 0; i < reps; ++i) {
    ProfileResult r = profile();
    if (best.wall_s == 0.0 || r.events_per_sec() > best.events_per_sec()) {
      best = r;
    }
  }
  return best;
}

struct Comparison {
  std::string name;
  ProfileResult pooled;
  ProfileResult legacy;

  double speedup() const {
    return legacy.events_per_sec() > 0
               ? pooled.events_per_sec() / legacy.events_per_sec()
               : 0.0;
  }
};

void print(const Comparison& c) {
  std::cout << c.name << ":\n"
            << "  pooled : "
            << static_cast<std::uint64_t>(c.pooled.events_per_sec())
            << " events/s";
  if (c.pooled.cancels > 0) {
    std::cout << ", " << static_cast<std::uint64_t>(c.pooled.cancels_per_sec())
              << " cancels/s";
  }
  std::cout << "  (" << c.pooled.events << " events in " << c.pooled.wall_s
            << " s)\n"
            << "  legacy : "
            << static_cast<std::uint64_t>(c.legacy.events_per_sec())
            << " events/s";
  if (c.legacy.cancels > 0) {
    std::cout << ", " << static_cast<std::uint64_t>(c.legacy.cancels_per_sec())
              << " cancels/s";
  }
  std::cout << "  (" << c.legacy.events << " events in " << c.legacy.wall_s
            << " s)\n"
            << "  speedup: " << c.speedup() << "x\n";
}

void write_json(const std::string& path, const std::vector<Comparison>& all,
                bool quick, std::uint64_t seed) {
  std::ofstream out{path};
  out << "{\n";
  out << "  \"bench\": \"engine_throughput\",\n";
  out << "  \"quick\": " << (quick ? "true" : "false") << ",\n";
  out << "  \"seed\": " << seed << ",\n";
  out << "  \"profiles\": {\n";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Comparison& c = all[i];
    out << "    \"" << c.name << "\": {\n";
    out << "      \"pooled_events_per_sec\": " << c.pooled.events_per_sec()
        << ",\n";
    out << "      \"pooled_cancels_per_sec\": " << c.pooled.cancels_per_sec()
        << ",\n";
    out << "      \"pooled_events\": " << c.pooled.events << ",\n";
    out << "      \"pooled_wall_s\": " << c.pooled.wall_s << ",\n";
    out << "      \"legacy_events_per_sec\": " << c.legacy.events_per_sec()
        << ",\n";
    out << "      \"legacy_cancels_per_sec\": " << c.legacy.cancels_per_sec()
        << ",\n";
    out << "      \"legacy_events\": " << c.legacy.events << ",\n";
    out << "      \"legacy_wall_s\": " << c.legacy.wall_s << ",\n";
    out << "      \"speedup\": " << c.speedup() << "\n";
    out << "    }" << (i + 1 < all.size() ? "," : "") << "\n";
  }
  out << "  }\n";
  out << "}\n";
}

} // namespace

int main(int argc, char** argv) {
  const util::Cli cli{argc, argv};
  if (cli.has("help")) {
    std::cout << "usage: " << cli.program()
              << " [--quick] [--json <path>] [--seed <n>] [--reps <n>]\n"
              << "Measures DES kernel throughput (pooled calendar vs. the\n"
              << "seed kernel replica) on schedule-heavy, cancel-heavy and\n"
              << "NERSC-replay-shaped profiles.\n";
    return 0;
  }
  const bool quick = cli.has("quick");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const auto reps =
      static_cast<unsigned>(cli.get_int("reps", quick ? 1 : 3));

  const std::uint64_t sched_events = quick ? 20000 : 4000000;
  const std::uint64_t cancel_cycles = quick ? 10000 : 1500000;
  const std::uint64_t replay_arrivals = quick ? 10000 : 1000000;

  std::cout << "== engine_throughput ==\n"
            << "   profiles sized " << (quick ? "--quick" : "full")
            << "; best of " << reps << " rep(s)\n\n";

  std::vector<Comparison> all;

  Comparison sched{"schedule_heavy", {}, {}};
  sched.pooled = best_of<des::Simulation>(reps, [&] {
    return schedule_heavy<des::Simulation>(sched_events, seed);
  });
  sched.legacy = best_of<legacy::Simulation>(reps, [&] {
    return schedule_heavy<legacy::Simulation>(sched_events, seed);
  });
  print(sched);
  all.push_back(sched);

  Comparison cancel{"cancel_heavy", {}, {}};
  cancel.pooled = best_of<des::Simulation>(
      reps, [&] { return cancel_heavy<des::Simulation>(cancel_cycles, seed); });
  cancel.legacy = best_of<legacy::Simulation>(reps, [&] {
    return cancel_heavy<legacy::Simulation>(cancel_cycles, seed);
  });
  print(cancel);
  all.push_back(cancel);

  Comparison replay{"replay_shaped", {}, {}};
  replay.pooled = best_of<des::Simulation>(reps, [&] {
    return replay_shaped<des::Simulation>(replay_arrivals, seed);
  });
  replay.legacy = best_of<legacy::Simulation>(reps, [&] {
    return replay_shaped<legacy::Simulation>(replay_arrivals, seed);
  });
  print(replay);
  all.push_back(replay);

  if (cli.has("json")) {
    const std::string path = cli.get("json", "BENCH_engine.json");
    write_json(path, all, quick, seed);
    std::cout << "\nwrote " << path << "\n";
  }
  return 0;
}
