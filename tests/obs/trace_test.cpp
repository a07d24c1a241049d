// Unit tests for the obs layer: buffer filtering, canonical merge order,
// single-run trace structure, and exporter determinism.
#include "obs/trace.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/export.h"
#include "sys/experiment.h"
#include "util/units.h"
#include "workload/catalog.h"

namespace spindown::obs {
namespace {

TEST(TraceBuffer, MaskFiltersWants) {
  const TraceBuffer spans_only{kind_bit(Kind::kSpan)};
  EXPECT_TRUE(spans_only.wants(Kind::kSpan));
  EXPECT_FALSE(spans_only.wants(Kind::kPower));
  EXPECT_FALSE(spans_only.wants(Kind::kMetric));

  const TraceBuffer off{0};
  for (const Kind k : {Kind::kSpan, Kind::kPower, Kind::kPolicy,
                       Kind::kMetric, Kind::kProfile}) {
    EXPECT_FALSE(off.wants(k));
  }
}

TEST(TraceBuffer, EmitPreservesOrderAndFields) {
  TraceBuffer buf{kind_bit(Kind::kSpan)};
  buf.emit(Kind::kSpan, kSpanSubmit, 1.0, 3, 42, 512.0, 7.0);
  buf.emit(Kind::kSpan, kSpanComplete, 2.5, 3, 42, 1.5);
  ASSERT_EQ(buf.size(), 2u);
  const auto& e = buf.events()[0];
  EXPECT_EQ(e.t, 1.0);
  EXPECT_EQ(e.id, 42u);
  EXPECT_EQ(e.value, 512.0);
  EXPECT_EQ(e.aux, 7.0);
  EXPECT_EQ(e.track, 3u);
  EXPECT_EQ(e.kind, Kind::kSpan);
  EXPECT_EQ(e.code, kSpanSubmit);
  EXPECT_EQ(buf.events()[1].code, kSpanComplete);
}

TEST(TraceCanonical, RouterTrackRanksFirstThenDisksAscending) {
  // Two buffers holding interleaved tracks: the merge must order by track
  // rank (router, disk 0, disk 1, ...) and keep per-track emission
  // order regardless of which buffer a track lived in.
  TraceBuffer a{kind_bit(Kind::kSpan)};
  TraceBuffer b{kind_bit(Kind::kSpan)};
  a.emit(Kind::kSpan, kSpanSubmit, 1.0, 2, 10);
  a.emit(Kind::kSpan, kSpanSubmit, 2.0, 2, 11);
  a.emit(Kind::kSpan, kSpanSubmit, 0.5, 0, 12);
  b.emit(Kind::kSpan, kSpanCacheMiss, 0.1, kRouterTrack, 13);
  b.emit(Kind::kSpan, kSpanSubmit, 3.0, 1, 14);

  std::vector<TraceEvent> out;
  TraceBuffer* const buffers[] = {&a, &b};
  append_canonical(out, buffers);

  ASSERT_EQ(out.size(), 5u);
  EXPECT_EQ(out[0].track, kRouterTrack);
  EXPECT_EQ(out[1].track, 0u);
  EXPECT_EQ(out[2].track, 1u);
  EXPECT_EQ(out[3].track, 2u);
  EXPECT_EQ(out[4].track, 2u);
  EXPECT_EQ(out[3].id, 10u); // per-track emission order preserved
  EXPECT_EQ(out[4].id, 11u);
}

TEST(TraceNames, KindAndCodeTables) {
  EXPECT_EQ(kind_name(Kind::kSpan), "span");
  EXPECT_EQ(kind_name(Kind::kPower), "power");
  EXPECT_EQ(kind_name(Kind::kProfile), "profile");
  EXPECT_EQ(code_name(Kind::kSpan, kSpanSubmit), "submit");
  EXPECT_EQ(code_name(Kind::kSpan, kSpanCacheHit), "cache_hit");
  EXPECT_EQ(code_name(Kind::kPolicy, kPolicyThresholdFired),
            "threshold_fired");
  EXPECT_EQ(code_name(Kind::kPower, 4), "standby");
  EXPECT_EQ(code_name(Kind::kProfile, kProfRouterFill), "router_fill");
  EXPECT_EQ(code_name(Kind::kProfile, kProfFeederFill), "feeder_fill");
}

// ------------------------------------------------------------- run traces

workload::FileCatalog small_catalog(std::size_t n_files = 16) {
  std::vector<workload::FileInfo> files(n_files);
  for (std::size_t i = 0; i < files.size(); ++i) {
    files[i].id = static_cast<workload::FileId>(i);
    files[i].size = util::mb(40.0 + 5.0 * static_cast<double>(i % 3));
    files[i].popularity = 1.0 / static_cast<double>(n_files);
  }
  return workload::FileCatalog{files};
}

sys::ExperimentConfig traced_config(const workload::FileCatalog& cat,
                                    std::uint32_t num_disks = 4) {
  sys::ExperimentConfig cfg;
  cfg.catalog = &cat;
  cfg.mapping.resize(cat.size());
  for (std::size_t i = 0; i < cfg.mapping.size(); ++i) {
    cfg.mapping[i] = static_cast<std::uint32_t>(i % num_disks);
  }
  cfg.num_disks = num_disks;
  cfg.workload = sys::WorkloadSpec::poisson(0.6, 300.0);
  cfg.seed = 11;
  cfg.obs = sys::ObsSpec::all();
  cfg.obs.metrics_interval_s = 50.0;
  return cfg;
}

TEST(RunTraceStructure, PerTrackTimestampsAreMonotone) {
  const auto cat = small_catalog();
  const auto cfg = traced_config(cat);
  RunTrace trace;
  (void)sys::run_experiment(cfg, &trace);
  ASSERT_FALSE(trace.events.empty());

  std::map<std::uint32_t, double> last_t;
  std::uint64_t last_rank = 0;
  for (const auto& e : trace.events) {
    EXPECT_GE(track_rank(e.track), last_rank) << "canonical order broken";
    last_rank = track_rank(e.track);
    const auto it = last_t.find(e.track);
    if (it != last_t.end()) {
      EXPECT_GE(e.t, it->second) << "track " << e.track << " went backwards";
    }
    last_t[e.track] = e.t;
  }
}

TEST(RunTraceStructure, SpanLifecycleEdgesOrdered) {
  const auto cat = small_catalog();
  const auto cfg = traced_config(cat);
  RunTrace trace;
  (void)sys::run_experiment(cfg, &trace);

  // For every request id the lifecycle edges must appear in causal order
  // with non-decreasing timestamps.
  struct Life {
    double submit = -1.0, complete = -1.0;
    int edges = 0;
  };
  std::map<std::uint64_t, Life> lives;
  for (const auto& e : trace.events) {
    if (e.kind != Kind::kSpan) continue;
    auto& l = lives[e.id];
    ++l.edges;
    if (e.code == kSpanSubmit) l.submit = e.t;
    if (e.code == kSpanComplete) {
      l.complete = e.t;
      EXPECT_GE(e.t, l.submit);
      // value = response time: must equal completion - submission.
      EXPECT_NEAR(e.value, e.t - l.submit, 1e-9);
    }
  }
  ASSERT_FALSE(lives.empty());
  std::size_t completed = 0;
  for (const auto& [id, l] : lives) {
    if (l.complete >= 0.0) {
      ++completed;
      EXPECT_GE(l.edges, 4) << "request " << id
                            << ": submit/enqueue/position/transfer/complete";
    }
  }
  EXPECT_GT(completed, 0u);
}

TEST(RunTraceStructure, PowerEventsRespectTransitionTable) {
  const auto cat = small_catalog();
  auto cfg = traced_config(cat);
  cfg.policy = sys::PolicySpec::fixed(5.0); // force spin-downs
  RunTrace trace;
  (void)sys::run_experiment(cfg, &trace);

  // Power events carry (value = previous state, code = next state); every
  // recorded transition must be legal.
  std::size_t power_events = 0;
  for (const auto& e : trace.events) {
    if (e.kind != Kind::kPower) continue;
    ++power_events;
    const auto from = static_cast<disk::PowerState>(
        static_cast<std::uint8_t>(e.value));
    const auto to = static_cast<disk::PowerState>(e.code);
    EXPECT_TRUE(disk::can_transition(from, to))
        << disk::to_string(from) << " -> " << disk::to_string(to);
  }
  EXPECT_GT(power_events, 0u);
}

TEST(RunTraceStructure, MetricsTickOnTheInterval) {
  const auto cat = small_catalog();
  const auto cfg = traced_config(cat); // interval 50 s, horizon 300 s
  RunTrace trace;
  (void)sys::run_experiment(cfg, &trace);

  std::size_t metric_events = 0;
  for (const auto& e : trace.events) {
    if (e.kind != Kind::kMetric) continue;
    ++metric_events;
    const double k = e.t / 50.0;
    EXPECT_DOUBLE_EQ(k, std::round(k)) << "tick off the interval grid";
    EXPECT_LT(e.t, 300.0); // strictly inside the horizon
    EXPECT_GT(e.t, 0.0);
  }
  // 5 in-horizon ticks (50..250), 2 gauges per disk, 4 disks.
  EXPECT_EQ(metric_events, 5u * 2u * 4u);
}

TEST(RunTraceStructure, ObsOffLeavesTraceEmptyAndResultIdentical) {
  const auto cat = small_catalog();
  auto cfg = traced_config(cat);

  const auto traced = [&] {
    RunTrace t;
    return std::pair{sys::run_experiment(cfg, &t), t.events.size()};
  }();
  EXPECT_GT(traced.second, 0u);

  cfg.obs = sys::ObsSpec::off();
  RunTrace empty;
  const auto off = sys::run_experiment(cfg, &empty);
  EXPECT_TRUE(empty.events.empty());
  EXPECT_TRUE(empty.profile.empty());

  const auto plain = sys::run_experiment(cfg);
  // Tracing is read-only: same physics, same event count, on or off.
  EXPECT_EQ(off.events, plain.events);
  EXPECT_EQ(off.requests, plain.requests);
  EXPECT_DOUBLE_EQ(off.power.energy, plain.power.energy);
  EXPECT_DOUBLE_EQ(off.response.mean(), plain.response.mean());
  EXPECT_EQ(traced.first.events, plain.events);
  EXPECT_DOUBLE_EQ(traced.first.power.energy, plain.power.energy);
}

// -------------------------------------------------------------- exporters

TEST(TraceExport, ChromeTraceIsDeterministicAndStructured) {
  const auto cat = small_catalog();
  const auto cfg = traced_config(cat);
  RunTrace trace;
  (void)sys::run_experiment(cfg, &trace);

  std::ostringstream a, b;
  write_chrome_trace(trace, a);
  write_chrome_trace(trace, b);
  const std::string out = a.str();
  EXPECT_EQ(out, b.str()) << "export must be a pure function of the trace";
  EXPECT_EQ(out.rfind(R"({"traceEvents":[)", 0), 0u);
  const std::string tail = R"(],"displayTimeUnit":"ms"})"
                           "\n";
  ASSERT_GE(out.size(), tail.size());
  EXPECT_EQ(out.substr(out.size() - tail.size()), tail);
  // Every span open has a close (async b/e pairs are balanced).
  std::size_t opens = 0, closes = 0;
  for (std::size_t pos = 0; (pos = out.find(R"("ph":"b")", pos)) !=
                            std::string::npos;
       ++pos) {
    ++opens;
  }
  for (std::size_t pos = 0; (pos = out.find(R"("ph":"e")", pos)) !=
                            std::string::npos;
       ++pos) {
    ++closes;
  }
  EXPECT_EQ(opens, closes);
  EXPECT_GT(opens, 0u);
}

TEST(TraceExport, JsonlHasMetaLineAndOneObjectPerEvent) {
  const auto cat = small_catalog();
  const auto cfg = traced_config(cat);
  RunTrace trace;
  (void)sys::run_experiment(cfg, &trace);

  std::ostringstream os;
  write_jsonl_trace(trace, os);
  const std::string out = os.str();
  std::istringstream lines{out};
  std::string line;
  std::size_t n = 0;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    ++n;
  }
  EXPECT_EQ(n, 1 + trace.events.size() + trace.profile.size());
  EXPECT_EQ(out.rfind(R"({"format":"spindown-trace")", 0), 0u);
}

TEST(TraceExport, FeederProfileLaneIsNamedInBothFormats) {
  // The feeder's samples live on their own lane: "feeder" in the Chrome
  // trace, track -2 in JSONL (the router is -1).
  RunTrace trace;
  trace.shards = 1;
  trace.profile.push_back(TraceEvent{0.25, 3, 0.5, 0.0, kFeederTrack,
                                     Kind::kProfile, kProfFeederFill});
  std::ostringstream chrome;
  write_chrome_trace(trace, chrome);
  EXPECT_NE(chrome.str().find(R"("args":{"name":"feeder"})"),
            std::string::npos);
  EXPECT_NE(chrome.str().find(R"("name":"feeder_fill")"), std::string::npos);
  std::ostringstream jsonl;
  write_jsonl_trace(trace, jsonl);
  EXPECT_NE(jsonl.str().find(R"("track":-2,"kind":"profile",)"
                             R"("code":"feeder_fill")"),
            std::string::npos);
}

} // namespace
} // namespace spindown::obs
