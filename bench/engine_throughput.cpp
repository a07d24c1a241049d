// engine_throughput.cpp — events/sec baseline for the DES kernel.
//
// Self-timed (std::chrono) microbench of the pooled event calendar
// (des::Simulation).  The committed BENCH_engine.json is a frozen record:
// it also carries the seed kernel the calendar replaced, measured in the
// same run (see README "Engine performance").
//
// Three profiles, shaped after the simulator's real hot paths:
//   * schedule-heavy — self-rescheduling event chains carrying a 24-byte
//     request payload (the shape of a calendar-scheduled arrival stream),
//   * cancel-heavy   — arm a 10 s timer, service a request, disarm the
//     timer (the fixed-threshold spin-down policy arms and disarms on every
//     request),
//   * replay-shaped  — a farm of disks with arrivals, service completions
//     and idle timers that mostly get disarmed, occasionally fire (the
//     NERSC trace replay shape).
//
// Usage:
//   engine_throughput [--quick] [--json <path>] [--seed <n>] [--reps <n>]
//
// --quick shrinks every profile to a smoke-test size (CI runs this to keep
// the binary from rotting; timing is not asserted).  --json writes the
// machine-readable result with the same pooled_* fields as the frozen
// BENCH_engine.json, so a run compares against it field for field.
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "des/simulation.h"
#include "util/cli.h"
#include "util/rng.h"

namespace {

using namespace spindown;

/// Mirrors the capture size of a calendar-scheduled arrival (`this` + a
/// by-value workload::Request), which the pooled calendar stores inline.
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
// Profiles.

ProfileResult schedule_heavy(std::uint64_t target_events, std::uint64_t seed) {
  des::Simulation sim;
  util::Rng rng{seed};
  std::uint64_t remaining = target_events;

  struct Chain {
    des::Simulation& sim;
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

ProfileResult cancel_heavy(std::uint64_t cycles, std::uint64_t seed) {
  des::Simulation sim;
  std::uint64_t fired = 0;
  (void)seed; // deterministic profile: the request pattern is fixed

  // The fixed-threshold spin-down discipline, distilled: every request
  // disarms the idle timer armed after the previous service and re-arms it,
  // so the cancel:execute ratio is 1:1.  Entirely event-driven — the whole
  // profile runs inside one sim.run(), like a real replay.
  struct Driver {
    des::Simulation& sim;
    std::uint64_t remaining;
    std::uint64_t& fired;
    std::uint64_t cancels = 0;
    des::EventHandle timer{};
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

ProfileResult replay_shaped(std::uint64_t target_arrivals, std::uint64_t seed) {
  des::Simulation sim;
  util::Rng farm_rng{seed};

  struct DiskState {
    des::EventHandle timer{};
    bool armed = false;
  };

  struct Farm {
    des::Simulation& sim;
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

template <class Fn>
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

struct Profile {
  std::string name;
  ProfileResult result;
};

void print(const Profile& p) {
  const ProfileResult& r = p.result;
  std::cout << p.name << ": " << static_cast<std::uint64_t>(r.events_per_sec())
            << " events/s";
  if (r.cancels > 0) {
    std::cout << ", " << static_cast<std::uint64_t>(r.cancels_per_sec())
              << " cancels/s";
  }
  std::cout << "  (" << r.events << " events in " << r.wall_s << " s)\n";
}

void write_json(const std::string& path, const std::vector<Profile>& all,
                bool quick, std::uint64_t seed) {
  std::ofstream out{path};
  out << "{\n";
  out << "  \"bench\": \"engine_throughput\",\n";
  out << "  \"quick\": " << (quick ? "true" : "false") << ",\n";
  out << "  \"seed\": " << seed << ",\n";
  out << "  \"profiles\": {\n";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const ProfileResult& r = all[i].result;
    out << "    \"" << all[i].name << "\": {\n";
    out << "      \"pooled_events_per_sec\": " << r.events_per_sec() << ",\n";
    out << "      \"pooled_cancels_per_sec\": " << r.cancels_per_sec()
        << ",\n";
    out << "      \"pooled_events\": " << r.events << ",\n";
    out << "      \"pooled_wall_s\": " << r.wall_s << "\n";
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
              << "Measures DES kernel throughput (pooled event calendar) on\n"
              << "schedule-heavy, cancel-heavy and NERSC-replay-shaped\n"
              << "profiles.\n";
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

  const std::vector<Profile> all{
      {"schedule_heavy",
       best_of(reps, [&] { return schedule_heavy(sched_events, seed); })},
      {"cancel_heavy",
       best_of(reps, [&] { return cancel_heavy(cancel_cycles, seed); })},
      {"replay_shaped",
       best_of(reps, [&] { return replay_shaped(replay_arrivals, seed); })},
  };
  for (const Profile& p : all) print(p);

  if (cli.has("json")) {
    const std::string path = cli.get("json", "engine_throughput.json");
    write_json(path, all, quick, seed);
    std::cout << "\nwrote " << path << "\n";
  }
  return 0;
}
