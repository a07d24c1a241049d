// bench.cpp — the repository benchmark's measuring program.
//
// Runs one ScenarioSpec through the public scenario API and prints, as the
// last line of stdout, one JSON object {correct, attempted, failed, metrics}.
// Three modes:
//
//   --reference   run the scenario once at shards=1 and print its result
//                 digest (what a sharded run must reproduce bit for bit);
//   --trace 0     timed: repeated resolve_scenario calls (set-up) and
//                 whole runs, each run after a few timings of a fixed
//                 calibration kernel; reports the end-to-end metrics, with
//                 host times scaled to a reference host speed;
//   --trace 1     traced: calls each module's public entry points from
//                 here, one span per call, and reports the per-layer
//                 metrics.  The traced run records obs=policy+profile (the
//                 full obs=all stream of a 3M-request run needs GBs) over
//                 the same horizon as the timed runs.
//
// Every run passes the correctness gate (Gate below): the horizon
// conservation identity, energy == sum(state_time x state power), the
// result digest against the one expected, and p99 below the response
// histogram ceiling.  A run that fails counts as a failed operation, and
// the program then exits 1.
//
// Usage: perfbench --scenario "<spec>" [--trace 0|1] [--seconds S]
//                  [--expect-digest HEX] [--reference] [--commit SHA]
//                  [--out results.json]
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <memory>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include "core/normalize.h"
#include "core/pack_disks.h"
#include "core/random_alloc.h"
#include "disk/power.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "orch/controller.h"
#include "sys/fleet.h"
#include "sys/scenario.h"
#include "util/cli.h"
#include "workload/catalog.h"
#include "workload/nersc.h"

namespace {

using namespace spindown;
using Clock = std::chrono::steady_clock;

const Clock::time_point kStart = Clock::now();

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Best-of-N: the fastest sample.  Memory traffic from other tenants of a
/// shared host slows single runs by up to 40% for seconds at a time; the
/// fastest run is what the code itself costs at the host's current speed.
double best(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

// ------------------------------------------------------------ host speed

/// The calibration kernel: a fixed event calendar (a binary heap of
/// timestamped events) whose every event updates a random slot of a 16 MiB
/// state array — the mix of branchy heap work and scattered memory traffic
/// the simulator does.  Deterministic: the same instructions and addresses
/// on every call.  Building the state is not timed; `loop()` is.
class CalibrationKernel {
public:
  CalibrationKernel() : state_(kSlots, 0.0) {
    heap_.reserve(kEvents);
    for (std::size_t i = 0; i < kEvents; ++i) {
      heap_.push_back({static_cast<double>(next() % 1000000),
                       static_cast<std::uint32_t>(next() % kSlots)});
    }
    std::make_heap(heap_.begin(), heap_.end(), std::greater<>{});
  }

  void loop() {
    for (std::uint64_t i = 0; i < kSteps; ++i) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
      Event& e = heap_.back();
      state_[e.slot] += e.t;
      e.t += static_cast<double>(next() % 4096);
      e.slot = static_cast<std::uint32_t>(next() % kSlots);
      std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
    }
    sink_ = state_[heap_.front().slot];
  }

private:
  static constexpr std::size_t kEvents = std::size_t{1} << 16;
  static constexpr std::size_t kSlots = std::size_t{1} << 21;
  static constexpr std::uint64_t kSteps = 400000;

  struct Event {
    double t;
    std::uint32_t slot;
    bool operator>(const Event& o) const { return t > o.t; }
  };

  std::uint64_t next() {
    rng_ ^= rng_ << 13;
    rng_ ^= rng_ >> 7;
    rng_ ^= rng_ << 17;
    return rng_;
  }

  std::uint64_t rng_ = 0x9e3779b97f4a7c15ULL;
  std::vector<double> state_;
  std::vector<Event> heap_;
  volatile double sink_ = 0.0; ///< keeps the loop's work observable
};

/// The calibration kernel's time on a quiet 4-vCPU Xeon VM (2.1 GHz): the
/// reference host speed that timed metrics are scaled to.
constexpr double kCalibrationReferenceS = 0.060;

/// Calibrations taken before each timed run.
constexpr int kCalibrationsPerRun = 3;

/// Wall seconds for one calibration loop: how fast the host is right now.
double calibrate() {
  CalibrationKernel kernel;
  const auto t0 = Clock::now();
  kernel.loop();
  return seconds_since(t0);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// ----------------------------------------------------------------- digest

/// FNV-1a over the bit patterns of every physical result field: equal
/// digests mean bit-identical results.  `events` is left out — it counts
/// calendar events and differs between the single calendar and the fleet
/// pipelines by design.
class Digest {
public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffU;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  void add(const stats::Welford& w) {
    add(w.count());
    add(w.mean());
    add(w.variance());
    add(w.min());
    add(w.max());
    add(w.sum());
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::string digest(const sys::RunResult& r) {
  Digest d;
  const auto& p = r.power;
  d.add(p.horizon_s);
  d.add(p.energy);
  d.add(p.average_power);
  d.add(p.always_on_energy);
  d.add(p.saving_vs_always_on);
  d.add(p.spin_ups);
  d.add(p.spin_downs);
  for (const double t : p.state_time) d.add(t);
  d.add(r.response.moments());
  const auto& hist = r.response.histogram();
  d.add(hist.total());
  d.add(hist.underflow());
  d.add(hist.overflow());
  for (std::size_t i = 0; i < hist.bins(); ++i) d.add(hist.bin_count(i));
  d.add(r.hits_response);
  d.add(r.cache.hits);
  d.add(r.cache.misses);
  d.add(r.cache.evictions);
  d.add(r.requests);
  d.add(r.completed_at_horizon);
  d.add(r.in_flight_at_horizon);
  for (const auto& m : r.per_disk) {
    d.add(std::uint64_t{m.disk_id});
    for (const double t : m.state_time) d.add(t);
    d.add(m.spin_ups);
    d.add(m.spin_downs);
    d.add(m.served);
    d.add(m.bytes_served);
    d.add(m.queued);
    d.add(m.in_service);
    d.add(m.destage_served);
    d.add(m.destage_pending);
    d.add(m.positionings);
    d.add(m.idle_periods.total());
    for (std::size_t i = 0; i < m.idle_periods.bins(); ++i) {
      d.add(m.idle_periods.bin_count(i));
    }
    d.add(m.response);
    d.add(m.energy_j);
    d.add(m.always_on_j);
  }
  return d.hex();
}

// ------------------------------------------------------- correctness gate

/// Collects the gate's findings for one run.
class Gate {
public:
  void check(bool ok, const std::string& what) {
    if (!ok) failures_.push_back(what);
  }
  bool ok() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }

private:
  std::vector<std::string> failures_;
};

/// The checks every run's result must pass.  `expect_digest` empty skips
/// the identity check (the reference run has nothing to compare with).
void gate_result(const sys::RunResult& r, const disk::DiskParams& params,
                 const std::string& expect_digest, const std::string& what,
                 Gate& gate) {
  gate.check(r.requests ==
                 r.completed_at_horizon + r.in_flight_at_horizon + r.cache.hits,
             what + ": requests != completed + in flight + cache hits");
  double energy = 0.0;
  for (const auto& m : r.per_disk) {
    for (std::size_t s = 0; s < disk::kPowerStateCount; ++s) {
      energy +=
          m.state_time[s] * disk::power_of(static_cast<disk::PowerState>(s),
                                           params);
    }
  }
  const double scale = std::max(std::abs(r.power.energy), 1e-300);
  gate.check(std::abs(energy - r.power.energy) / scale <= 1e-9,
             what + ": energy != sum of state_time x state power");
  if (!expect_digest.empty()) {
    gate.check(digest(r) == expect_digest,
               what + ": digest " + digest(r) + " != expected " +
                   expect_digest);
  }
  gate.check(r.response.p99() < stats::ResponseSummary::kHistHi,
             what + ": p99 at the response histogram ceiling");
}

// ------------------------------------------------------------------ output

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Options {
  std::string scenario;
  std::string expect_digest;
  std::string commit = "unknown";
  std::string out;
  double seconds = 10.0;
  bool trace = false;
  bool reference = false;
};

unsigned affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 0;
  return static_cast<unsigned>(CPU_COUNT(&set));
}

bool sanitized_build() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  return true;
#endif
#endif
  return PERFBENCH_SANITIZED != 0;
}

std::string meta_json(const Options& o, const char* mode) {
  std::string s = "{\"mode\": \"" + std::string{mode} + "\"";
  s += ", \"scenario\": \"" + json_escape(o.scenario) + "\"";
  s += ", \"nproc\": " + std::to_string(affinity_cpus());
  s += ", \"hardware_concurrency\": " +
       std::to_string(std::thread::hardware_concurrency());
  s += ", \"compiler\": \"" + json_escape(PERFBENCH_COMPILER) + "\"";
  s += ", \"build_type\": \"" + json_escape(PERFBENCH_BUILD_TYPE) + "\"";
  s += ", \"sanitize\": \"" + json_escape(PERFBENCH_SANITIZE) + "\"";
  s += ", \"commit\": \"" + json_escape(o.commit) + "\"}";
  return s;
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed);
  s += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) s += ", ";
    s += "\"" + metrics[i].name + "\": {\"value\": " + num(metrics[i].value) +
         ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return s + "}}";
}

/// One timed region, kept in memory and written out when the run ends.
struct Span {
  std::string name;
  double start_s = 0.0; ///< since program start
  double end_s = 0.0;
  int parent = -1; ///< index into the span list, -1 for a root
};

class SpanLog {
public:
  int open(const std::string& name, int parent = -1) {
    spans_.push_back(Span{name, seconds_since(kStart), 0.0, parent});
    return static_cast<int>(spans_.size()) - 1;
  }
  double close(int id) {
    auto& s = spans_[static_cast<std::size_t>(id)];
    s.end_s = seconds_since(kStart);
    return s.end_s - s.start_s;
  }
  /// Run `f` inside a span; returns the span's duration in seconds.
  template <class F>
  double time(const std::string& name, int parent, F&& f) {
    const int id = open(name, parent);
    f();
    return close(id);
  }
  const std::vector<Span>& spans() const { return spans_; }

private:
  std::vector<Span> spans_;
};

/// Write the spans as a Chrome trace_event file (load in Perfetto), with
/// the run's metadata, gate findings and metrics under "otherData".
void write_results(const Options& o, const std::string& meta,
                   const SpanLog& log, const std::vector<std::string>& notes,
                   const std::string& result) {
  if (o.out.empty()) return;
  std::ofstream f{o.out};
  f << "{\"traceEvents\": [";
  const auto& spans = log.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    f << (i == 0 ? "\n" : ",\n") << "{\"name\": \"" << s.name
      << "\", \"ph\": \"X\", \"pid\": 0, \"tid\": 0, \"ts\": "
      << num(s.start_s * 1e6) << ", \"dur\": "
      << num((s.end_s - s.start_s) * 1e6) << ", \"args\": {\"id\": " << i
      << ", \"parent\": " << s.parent << "}}";
  }
  f << "],\n\"otherData\": {\"meta\": " << meta << ", \"gate_failures\": [";
  for (std::size_t i = 0; i < notes.size(); ++i) {
    f << (i == 0 ? "" : ", ") << "\"" << json_escape(notes[i]) << "\"";
  }
  f << "], \"result\": " << result << "}}\n";
}

/// Print the metadata line and the result line; record both in --out.
int finish(const Options& o, const char* mode, const SpanLog& log,
           const std::vector<std::string>& failures, std::uint64_t attempted,
           std::uint64_t failed, const std::vector<Metric>& metrics) {
  const std::string meta = meta_json(o, mode);
  const std::string result =
      result_json(failed == 0, attempted, failed, metrics);
  for (const auto& f : failures) std::cerr << "gate: " << f << "\n";
  write_results(o, meta, log, failures, result);
  std::cout << "{\"meta\": " << meta << "}\n" << result << std::endl;
  return failed == 0 ? 0 : 1;
}

// ------------------------------------------------------------- timed mode

sys::ScenarioSpec parse_spec(const Options& o) {
  auto spec = sys::ScenarioSpec::parse(o.scenario);
  if (spec.obs.enabled()) {
    throw std::invalid_argument{"perfbench: timed scenarios must be obs=off"};
  }
  return spec;
}

int run_reference(const Options& o) {
  auto spec = parse_spec(o);
  spec.shards = 1;
  const auto resolved = sys::resolve_scenario(spec);
  const auto result = sys::run_experiment(resolved.config);
  Gate gate;
  gate_result(result, resolved.config.params, "", "reference", gate);
  for (const auto& f : gate.failures()) std::cerr << "gate: " << f << "\n";
  std::cout << "{\"meta\": " << meta_json(o, "reference") << "}\n"
            << "{\"digest\": \"" << digest(result) << "\"}" << std::endl;
  return gate.ok() ? 0 : 1;
}

int run_timed(const Options& o) {
  const auto spec = parse_spec(o);
  SpanLog log;
  const auto t0 = Clock::now();

  // Set-up (resolve_scenario: catalog and trace synthesis, placement) is
  // interleaved with the runs: before the first, and again whenever it has
  // taken less than a tenth of the run time so far, so its median samples
  // the whole window.  Each run is preceded by a few calibrations of the
  // host's speed, and gated.  One warm-up run is left out of the timings;
  // the peak memory is read after it, before any calibration allocates.
  std::vector<double> setup, wall, cpu, cal;
  std::vector<std::string> failures;
  std::uint64_t attempted = 0, failed = 0;
  double setup_total = 0.0, run_total = 0.0, iteration_s = 0.0;
  double peak_mb = 0.0;
  sys::ResolvedScenario resolved;
  sys::RunResult last;
  // Stop before an iteration that would overrun the window.
  for (int i = 0; i == 0 || wall.size() < 3 ||
                  seconds_since(t0) + iteration_s < o.seconds;
       ++i) {
    const auto ti = Clock::now();
    while (i == 0 ? setup.empty() : setup_total < 0.1 * run_total) {
      resolved = sys::ResolvedScenario{};
      setup.push_back(log.time("resolve", -1, [&] {
        resolved = sys::resolve_scenario(spec);
      }));
      setup_total += setup.back();
    }
    const auto& cfg = resolved.config;
    if (i > 0) {
      for (int k = 0; k < kCalibrationsPerRun; ++k) {
        const int span = log.open("calibrate");
        cal.push_back(calibrate());
        log.close(span);
      }
    }
    const double c0 = process_cpu_s();
    const double w = log.time(i == 0 ? "warmup_run" : "run", -1,
                              [&] { last = sys::run_experiment(cfg); });
    const double c1 = process_cpu_s();
    run_total += w;
    ++attempted;
    Gate gate;
    gate_result(last, cfg.params, o.expect_digest,
                "run " + std::to_string(i), gate);
    if (!gate.ok()) {
      ++failed;
      failures.insert(failures.end(), gate.failures().begin(),
                      gate.failures().end());
    }
    if (i == 0) {
      peak_mb = peak_rss_mb();
    } else {
      wall.push_back(w);
      cpu.push_back(c1 - c0);
    }
    iteration_s = seconds_since(ti);
  }

  // Host seconds scaled to the reference host speed: the fastest run over
  // the fastest calibration of the same window, times the calibration's
  // reference time.  Both minima skip the seconds-long slowdowns a shared
  // host has; their ratio cancels the minutes-long drift in its speed.
  const double scale = kCalibrationReferenceS / best(cal);
  const double always_on = last.power.always_on_energy;
  const std::vector<Metric> metrics = {
      {"req_per_s",
       static_cast<double>(last.requests) / (best(wall) * scale), "1/s"},
      {"setup_s", median(setup) * scale, "s"},
      {"cpu_s", best(cpu) * scale, "s"},
      {"peak_rss_mb", peak_mb, "MB"},
      {"energy_ratio", always_on > 0.0 ? last.power.energy / always_on : 0.0,
       "ratio"},
      {"resp_mean_s", last.response.mean(), "sim_s"},
      {"resp_p99_s", last.response.p99(), "sim_s"},
  };
  std::cerr << "perfbench: " << wall.size() << " timed runs, "
            << setup.size() << " set-ups, " << cal.size()
            << " calibrations; unscaled: "
            << "fastest run " << num(best(wall)) << " s, median set-up "
            << num(median(setup)) << " s, fastest calibration "
            << num(best(cal)) << " s; energy_saving "
            << num(last.power.saving_vs_always_on) << ", requests "
            << last.requests << ", digest " << digest(last) << "\n";
  return finish(o, "timed", log, failures, attempted, failed, metrics);
}

// ------------------------------------------------------------ traced mode

/// Catalog synthesis alone: the workload-module call scenario resolution
/// makes for the spec's catalog key.
struct CatalogProbe {
  std::shared_ptr<const workload::Trace> trace; ///< nersc catalogs only
  workload::FileCatalog synthetic;
  const workload::FileCatalog& catalog() const {
    return trace != nullptr ? trace->catalog() : synthetic;
  }
};

CatalogProbe make_catalog(const sys::ScenarioSpec& spec) {
  CatalogProbe out;
  switch (spec.catalog.kind) {
    case sys::CatalogSpec::Kind::kSynthetic: {
      util::Rng rng{spec.catalog.seed};
      out.synthetic = workload::generate_catalog(spec.catalog.synth, rng);
      return out;
    }
    case sys::CatalogSpec::Kind::kNersc:
      out.trace = std::make_shared<const workload::Trace>(
          workload::synthesize_nersc(spec.catalog.nersc));
      return out;
    case sys::CatalogSpec::Kind::kTrace:
      break;
  }
  throw std::invalid_argument{
      "perfbench: the catalog probe covers synthetic and nersc catalogs"};
}

/// The placement call on the finished catalog, with the load model
/// scenario resolution derives (R from the workload or trace).
std::vector<std::uint32_t> place(const sys::ScenarioSpec& spec,
                                 const CatalogProbe& cat) {
  core::LoadModel model;
  model.rate = std::max(
      1e-6, cat.trace != nullptr
                ? static_cast<double>(cat.trace->size()) /
                      std::max(1.0, cat.trace->duration())
                : spec.workload.mean_rate());
  model.load_fraction = spec.load_fraction;
  model.disk = spec.params;
  switch (spec.placement.kind) {
    case sys::PlacementSpec::Kind::kPack: {
      const auto items = core::normalize(cat.catalog(), model);
      core::PackDisks pack;
      return pack.allocate(items).disk_of;
    }
    case sys::PlacementSpec::Kind::kRandom:
      if (spec.disks == 0) break;
      model.load_fraction = 1.0; // random placement ignores load
      {
        const auto items = core::normalize(cat.catalog(), model);
        core::RandomAllocator rnd{spec.disks, spec.seed};
        return rnd.allocate(items).disk_of;
      }
    default:
      break;
  }
  throw std::invalid_argument{
      "perfbench: the placement probe covers pack and random with disks="};
}

struct OrchCounts {
  std::uint64_t routes = 0;
  std::uint64_t redirects = 0;
  std::uint64_t offloads = 0;
  std::uint64_t destages = 0;
};

/// Replay the post-cache stream through an orchestration controller built
/// as the fleet router builds it; only the route loop is timed.
OrchCounts replay_controller(const sys::ExperimentConfig& cfg,
                             const std::vector<workload::Request>& reqs,
                             const std::vector<std::uint32_t>& post_cache,
                             SpanLog& log, int parent, double& loop_s) {
  loop_s = 0.0;
  if (!cfg.orch.enabled()) return {};
  const double horizon = cfg.workload.measurement_horizon();
  orch::Config ocfg;
  ocfg.redirect = cfg.orch.redirect;
  ocfg.offload = cfg.orch.offload;
  ocfg.budget = cfg.orch.budget;
  ocfg.log_disks = cfg.orch.offload ? cfg.orch.log_disks : 0;
  ocfg.data_disks = cfg.num_disks - ocfg.log_disks;
  ocfg.replicas = cfg.replicas;
  ocfg.destage_deadline_s = cfg.orch.destage_deadline_s;
  ocfg.write_fraction = cfg.orch.write_fraction;
  ocfg.slo_p99_s = cfg.orch.slo_p99_s;
  ocfg.horizon_s = horizon;
  ocfg.disk_capacity = cfg.params.capacity;
  ocfg.mean_request_bytes = cfg.catalog->mean_request_bytes();
  orch::ServiceModel model;
  model.position_s = cfg.params.position_time();
  model.transfer_bps = cfg.params.transfer_bps;
  model.spinup_s = cfg.params.spinup_s;
  switch (cfg.policy.kind) {
    case sys::PolicySpec::Kind::kNever:
      model.sleep_after_s = std::numeric_limits<double>::infinity();
      break;
    case sys::PolicySpec::Kind::kFixed:
      model.sleep_after_s = cfg.policy.fixed_threshold_s;
      break;
    default:
      model.sleep_after_s = cfg.params.break_even_threshold();
      break;
  }
  const auto extents =
      workload::layout_extents(*cfg.catalog, cfg.mapping, cfg.num_disks);
  orch::FleetController ctl{ocfg, model, cfg.mapping, extents, nullptr};
  std::vector<orch::Submission> subs;
  OrchCounts out;
  loop_s = log.time("controller_replay", parent, [&] {
    for (const std::uint32_t i : post_cache) {
      const auto& r = reqs[i];
      subs.clear();
      ctl.flush_deadlines(r.arrival, subs);
      ctl.route(r.arrival, r.id, cfg.catalog->by_id(r.file), subs);
    }
    subs.clear();
    ctl.flush_deadlines(horizon, subs);
  });
  out.routes = post_cache.size();
  out.redirects = ctl.redirects();
  out.offloads = ctl.offloads();
  out.destages = ctl.destages();
  return out;
}

/// An ostream sink that only counts bytes: export cost without file I/O.
class CountingBuf : public std::streambuf {
public:
  std::uint64_t bytes() const { return bytes_; }

protected:
  int_type overflow(int_type c) override {
    if (!traits_type::eq_int_type(c, traits_type::eof())) ++bytes_;
    return traits_type::not_eof(c);
  }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    bytes_ += static_cast<std::uint64_t>(n);
    return n;
  }

private:
  std::uint64_t bytes_ = 0;
};

double ratio(std::uint64_t a, std::uint64_t b) {
  return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
}

int run_traced(const Options& o) {
  const auto spec = parse_spec(o);
  const sys::ObsSpec trace_obs = sys::ObsSpec::parse("policy+profile");
  SpanLog log;
  const auto t0 = Clock::now();

  // Per-iteration samples (best of N reported, see best()), the pipeline
  // diagnostics of the fastest untraced run, and the last iteration's
  // counts (deterministic: equal on every iteration).
  std::vector<double> resolve_s, catalog_s, place_s, gen_ns, cache_ns,
      route_ns, fleet_s, merge_s, run_s, traced_s, export_s;
  cache::CacheStats cache_stats;
  OrchCounts orch;
  sys::FleetPerf perf, fastest_perf;
  sys::RunResult plain;
  std::uint64_t trace_events = 0;
  std::vector<std::string> failures;
  std::uint64_t attempted = 0, failed = 0;

  double iteration_s = 0.0;
  for (int it = 0; it == 0 || seconds_since(t0) + iteration_s < o.seconds;
       ++it) {
    const int root = log.open("iteration");
    Gate gate;
    ++attempted;

    sys::ResolvedScenario res;
    resolve_s.push_back(log.time("resolve", root, [&] {
      res = sys::resolve_scenario(spec);
    }));
    const auto& cfg = res.config;
    {
      CatalogProbe cat;
      catalog_s.push_back(
          log.time("catalog", root, [&] { cat = make_catalog(spec); }));
      std::vector<std::uint32_t> mapping;
      place_s.push_back(
          log.time("placement", root, [&] { mapping = place(spec, cat); }));
      gate.check(mapping == cfg.mapping,
                 "placement probe differs from scenario resolution");
    }

    // The arrival stream, drained alone; then the cache and the
    // orchestration controller replayed over it in arrival order, exactly
    // as the fleet router feeds them.
    std::vector<workload::Request> reqs;
    reqs.reserve(plain.requests);
    const double drain = log.time("stream_drain", root, [&] {
      const auto stream = cfg.workload.make_stream(*cfg.catalog, cfg.seed);
      while (auto r = stream->next()) reqs.push_back(*r);
    });
    gen_ns.push_back(
        1e9 * drain /
        static_cast<double>(std::max<std::size_t>(1, reqs.size())));
    std::vector<std::uint32_t> post_cache;
    post_cache.reserve(reqs.size());
    const auto cache = cfg.cache.make();
    const double cache_time = log.time("cache_replay", root, [&] {
      for (std::uint32_t i = 0; i < reqs.size(); ++i) {
        const auto& f = cfg.catalog->by_id(reqs[i].file);
        if (cache == nullptr || !cache->access(f.id, f.size)) {
          post_cache.push_back(i);
        }
      }
    });
    cache_stats = cache != nullptr ? cache->stats() : cache::CacheStats{};
    cache_ns.push_back(cache != nullptr ? 1e9 * cache_time /
                                              static_cast<double>(reqs.size())
                                        : 0.0);
    double route_time = 0.0;
    orch = replay_controller(cfg, reqs, post_cache, log, root, route_time);
    route_ns.push_back(orch.routes > 0 ? 1e9 * route_time /
                                             static_cast<double>(orch.routes)
                                       : 0.0);
    const std::size_t n_reqs = reqs.size();
    reqs = {};
    post_cache = {};

    // The fleet pipeline's partial results, folded with RunResult::merge.
    {
      std::vector<sys::RunResult> partials;
      fleet_s.push_back(log.time("run_fleet_partials", root, [&] {
        partials = sys::run_fleet_partials(
            cfg, sys::effective_shards(cfg.shards, cfg.num_disks));
      }));
      sys::RunResult merged;
      merge_s.push_back(log.time("merge", root, [&] {
        for (const auto& p : partials) merged.merge(p);
      }));
      gate_result(merged, cfg.params, o.expect_digest, "merged partials",
                  gate);
    }

    // An untraced run with pipeline diagnostics, then the traced run and
    // the export of its trace.
    perf = sys::FleetPerf{};
    run_s.push_back(log.time("untraced_run", root, [&] {
      plain = sys::run_experiment(cfg, nullptr, &perf);
    }));
    gate_result(plain, cfg.params, o.expect_digest, "untraced run", gate);
    gate.check(n_reqs == plain.requests,
               "stream drain length != requests of the run");
    gate.check(cache_stats.hits == plain.cache.hits &&
                   cache_stats.misses == plain.cache.misses &&
                   cache_stats.evictions == plain.cache.evictions,
               "cache replay differs from the run's cache statistics");
    {
      auto traced_cfg = cfg;
      traced_cfg.obs = trace_obs;
      obs::RunTrace trace;
      sys::RunResult traced;
      traced_s.push_back(log.time("traced_run", root, [&] {
        traced = sys::run_experiment(traced_cfg, &trace);
      }));
      gate.check(digest(traced) == digest(plain),
                 "traced result differs from the untraced one");
      trace_events = trace.events.size() + trace.profile.size();
      CountingBuf sink;
      std::ostream os{&sink};
      export_s.push_back(log.time("export", root, [&] {
        obs::write_chrome_trace(trace, os);
      }));
    }
    iteration_s = log.close(root);
    if (run_s.back() == best(run_s)) fastest_perf = perf;

    if (!gate.ok()) {
      ++failed;
      failures.insert(failures.end(), gate.failures().begin(),
                      gate.failures().end());
    }
  }

  const auto& fp = fastest_perf;
  double busy_sum = 0.0, busy_max = 0.0, wait_max = 0.0;
  for (const double b : fp.worker_busy_s) {
    busy_sum += b;
    busy_max = std::max(busy_max, b);
  }
  for (const double w : fp.worker_wait_s) wait_max = std::max(wait_max, w);
  // A single-calendar run has no worker threads: its calendar is busy for
  // the whole run.
  const double events_per_busy =
      static_cast<double>(plain.events) /
      (busy_sum > 0.0 ? busy_sum : best(run_s));
  std::uint64_t batches = 0, sub_max = 0, sub_sum = 0, positionings = 0;
  std::size_t high_water = 0;
  for (const auto& s : fp.per_shard) {
    batches += s.batches;
    sub_max = std::max(sub_max, s.submissions);
    sub_sum += s.submissions;
    high_water = std::max(high_water, s.ring_high_water);
  }
  const double imbalance =
      sub_sum == 0 ? 1.0
                   : static_cast<double>(sub_max) * fp.per_shard.size() /
                         static_cast<double>(sub_sum);
  for (const auto& m : plain.per_disk) positionings += m.positionings;
  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };

  const std::vector<Metric> metrics = {
      {"workload.catalog_s", best(catalog_s), "s"},
      {"workload.gen_ns_per_req", best(gen_ns), "ns"},
      {"core.place_s", best(place_s), "s"},
      {"cache.ns_per_access", best(cache_ns), "ns"},
      {"cache.hit_ratio", cache_stats.hit_ratio(), "ratio"},
      {"cache.evictions", count(cache_stats.evictions), "count"},
      {"orch.ns_per_route", best(route_ns), "ns"},
      {"orch.redirect_ratio", ratio(orch.redirects, orch.routes), "ratio"},
      {"orch.offload_ratio", ratio(orch.offloads, orch.routes), "ratio"},
      {"orch.destages", count(orch.destages), "count"},
      {"sys.resolve_s", best(resolve_s), "s"},
      {"sys.run_s", best(run_s), "s"},
      {"sys.fleet_run_s", best(fleet_s), "s"},
      {"sys.router_busy_s", fp.router_busy_s, "s"},
      {"sys.router_stall_s", fp.router_stall_s, "s"},
      {"sys.worker_busy_max_s", busy_max, "s"},
      {"sys.worker_wait_max_s", wait_max, "s"},
      {"sys.shard_imbalance", imbalance, "ratio"},
      {"sys.batches", count(batches), "count"},
      {"sys.ring_high_water", count(high_water), "count"},
      {"des.events", count(plain.events), "count"},
      {"des.events_per_busy_s", events_per_busy, "1/s"},
      {"disk.spin_ups", count(plain.power.spin_ups), "count"},
      {"disk.spin_downs", count(plain.power.spin_downs), "count"},
      {"disk.positionings", count(positionings), "count"},
      {"disk.served", count(plain.completed_at_horizon), "count"},
      {"stats.merge_s", best(merge_s), "s"},
      {"obs.traced_run_s", best(traced_s), "s"},
      {"obs.overhead", best(traced_s) / best(run_s) - 1.0, "ratio"},
      {"obs.events", count(trace_events), "count"},
      {"obs.export_s", best(export_s), "s"},
  };
  std::cerr << "perfbench: " << attempted << " traced iterations (obs="
            << trace_obs.spec() << ", full horizon)\n";
  return finish(o, "traced", log, failures, attempted, failed, metrics);
}

} // namespace

int main(int argc, char** argv) {
  try {
    util::Cli cli{argc, argv};
    Options o;
    o.scenario = cli.get("scenario", "");
    o.expect_digest = cli.get("expect-digest", "");
    o.commit = cli.get("commit", "unknown");
    o.out = cli.get("out", "");
    o.seconds = cli.get_double("seconds", 10.0);
    o.trace = cli.get_int("trace", 0) != 0;
    o.reference = cli.has("reference");
    if (o.scenario.empty()) {
      std::cerr << "usage: perfbench --scenario \"<spec>\" [--trace 0|1] "
                   "[--seconds S] [--expect-digest HEX] [--reference] "
                   "[--commit SHA] [--out FILE]\n";
      return 2;
    }
    if (std::string{PERFBENCH_BUILD_TYPE} != "Release" || sanitized_build()) {
      std::cerr << "perfbench: refusing to time a " << PERFBENCH_BUILD_TYPE
                << " build (sanitize=" << PERFBENCH_SANITIZE
                << "); configure with -DCMAKE_BUILD_TYPE=Release "
                   "-DSPINDOWN_SANITIZE=OFF\n";
      return 3;
    }
    if (o.reference) return run_reference(o);
    return o.trace ? run_traced(o) : run_timed(o);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
