#include "obs/export.h"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <ostream>
#include <string>

#include "disk/power.h"

namespace spindown::obs {
namespace {

constexpr std::uint32_t kCounterTid = 0xfffffffeu;

/// %.17g round-trips every finite double, so the byte stream is a pure
/// function of the event values.
std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string fmt_u64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  return buf;
}

/// Comma-separated JSON array element writer.
class Emitter {
public:
  explicit Emitter(std::ostream& os) : os_(os) {}
  void item(const std::string& json) {
    if (!first_) os_ << ",\n";
    first_ = false;
    os_ << json;
  }

private:
  std::ostream& os_;
  bool first_ = true;
};

std::string track_label(std::uint32_t track) {
  if (track == kRouterTrack) return "router";
  return "disk " + fmt_u64(track);
}

/// Profile lane name: the pipeline thread that recorded the sample.
std::string lane_label(std::uint32_t lane) {
  if (lane == kRouterTrack) return "router";
  if (lane == kFeederTrack) return "feeder";
  return "shard " + fmt_u64(lane);
}

/// JSONL track id: disks (and shard lanes) keep their index; the router is
/// -1 and the feeder lane -2.
std::int64_t jsonl_track(std::uint32_t track) {
  if (track == kRouterTrack) return -1;
  if (track == kFeederTrack) return -2;
  return static_cast<std::int64_t>(track);
}

/// One farm-wide counter sample, folded from the per-disk metric gauges.
struct CounterRow {
  double queued = 0.0;
  double in_flight = 0.0;
  double spun_down = 0.0;
};

void emit_metadata(Emitter& out, const RunTrace& trace) {
  out.item(R"({"ph":"M","pid":0,"tid":0,"name":"process_name",)"
           R"("args":{"name":"sim"}})");
  std::uint32_t last_track = 0;
  bool have_track = false;
  for (const TraceEvent& e : trace.events) {
    if (e.kind == Kind::kMetric) continue; // folded into counter tracks
    if (have_track && e.track == last_track) continue;
    last_track = e.track;
    have_track = true;
    out.item(R"({"ph":"M","pid":0,"tid":)" + fmt_u64(e.track) +
             R"(,"name":"thread_name","args":{"name":")" +
             track_label(e.track) + R"("}})");
  }
  bool any_metric = false;
  for (const TraceEvent& e : trace.events) {
    if (e.kind == Kind::kMetric) {
      any_metric = true;
      break;
    }
  }
  if (any_metric) {
    out.item(R"({"ph":"M","pid":0,"tid":)" + fmt_u64(kCounterTid) +
             R"(,"name":"thread_name","args":{"name":"counters"}})");
  }
  if (!trace.profile.empty()) {
    out.item(R"({"ph":"M","pid":1,"tid":0,"name":"process_name",)"
             R"("args":{"name":"pipeline ()" + fmt_u64(trace.shards) +
             R"x( shards)"}})x");
    std::map<std::uint32_t, bool> lanes;
    for (const TraceEvent& e : trace.profile) lanes[e.track] = true;
    for (const auto& [lane, unused] : lanes) {
      (void)unused;
      out.item(R"({"ph":"M","pid":1,"tid":)" + fmt_u64(lane) +
               R"(,"name":"thread_name","args":{"name":")" +
               lane_label(lane) + R"("}})");
    }
  }
}

void emit_sim_events(Emitter& out, const RunTrace& trace,
                     std::map<double, CounterRow>& counters) {
  const auto& ev = trace.events;
  for (std::size_t i = 0; i < ev.size(); ++i) {
    const TraceEvent& e = ev[i];
    const std::string ts = fmt(e.t * 1e6);
    const std::string tid = fmt_u64(e.track);
    const std::string name{code_name(e.kind, e.code)};
    switch (e.kind) {
      case Kind::kSpan:
        if (e.code == kSpanSubmit) {
          out.item(R"({"ph":"b","cat":"request","name":"request","id":)" +
                   fmt_u64(e.id) + R"(,"pid":0,"tid":)" + tid + R"(,"ts":)" +
                   ts + R"(,"args":{"bytes":)" + fmt(e.value) + "}}");
        } else if (e.code == kSpanComplete) {
          out.item(R"({"ph":"e","cat":"request","name":"request","id":)" +
                   fmt_u64(e.id) + R"(,"pid":0,"tid":)" + tid + R"(,"ts":)" +
                   ts + R"(,"args":{"response_s":)" + fmt(e.value) +
                   R"(,"wait_s":)" + fmt(e.aux) + "}}");
        } else {
          out.item(R"({"ph":"i","s":"t","cat":"request","name":")" + name +
                   R"(","pid":0,"tid":)" + tid + R"(,"ts":)" + ts +
                   R"(,"args":{"id":)" + fmt_u64(e.id) + R"(,"value":)" +
                   fmt(e.value) + "}}");
        }
        break;
      case Kind::kPower: {
        double dur = trace.horizon_s > e.t ? trace.horizon_s - e.t : 0.0;
        for (std::size_t j = i + 1; j < ev.size() && ev[j].track == e.track;
             ++j) {
          if (ev[j].kind == Kind::kPower) {
            dur = ev[j].t - e.t;
            break;
          }
        }
        const std::uint8_t from = static_cast<std::uint8_t>(e.value);
        out.item(R"({"ph":"X","cat":"power","name":")" + name +
                 R"(","pid":0,"tid":)" + tid + R"(,"ts":)" + ts +
                 R"(,"dur":)" + fmt(dur * 1e6) + R"(,"args":{"from":")" +
                 std::string{code_name(Kind::kPower, from)} + R"("}})");
        break;
      }
      case Kind::kPolicy:
        out.item(R"({"ph":"i","s":"t","cat":"policy","name":")" + name +
                 R"(","pid":0,"tid":)" + tid + R"(,"ts":)" + ts +
                 R"(,"args":{"timeout_s":)" + fmt(e.value) +
                 R"(,"estimate":)" + fmt(e.aux) + "}}");
        break;
      case Kind::kMetric: {
        CounterRow& row = counters[e.t];
        if (e.code == kMetricQueueDepth) {
          row.queued += e.value;
          row.in_flight += e.value + e.aux;
        } else if (e.code == kMetricPowerState) {
          row.spun_down +=
              e.value ==
                      static_cast<double>(static_cast<unsigned>(
                          disk::PowerState::kStandby))
                  ? 1.0
                  : 0.0;
        }
        break;
      }
      case Kind::kProfile:
        break; // lives in trace.profile, not the canonical stream
    }
  }
}

void emit_counters(Emitter& out,
                   const std::map<double, CounterRow>& counters) {
  for (const auto& [t, row] : counters) {
    const std::string ts = fmt(t * 1e6);
    const std::string head =
        R"({"ph":"C","pid":0,"tid":)" + fmt_u64(kCounterTid) + R"(,"ts":)" +
        ts;
    out.item(head + R"(,"name":"queued","args":{"queued":)" +
             fmt(row.queued) + "}}");
    out.item(head + R"(,"name":"in_flight","args":{"in_flight":)" +
             fmt(row.in_flight) + "}}");
    out.item(head + R"(,"name":"spun_down","args":{"spun_down":)" +
             fmt(row.spun_down) + "}}");
  }
}

void emit_profile(Emitter& out, const RunTrace& trace) {
  for (const TraceEvent& e : trace.profile) {
    out.item(R"({"ph":"X","cat":"pipeline","name":")" +
             std::string{code_name(Kind::kProfile, e.code)} +
             R"(","pid":1,"tid":)" + fmt_u64(e.track) + R"(,"ts":)" +
             fmt(e.t * 1e6) + R"(,"dur":)" + fmt(e.value * 1e6) +
             R"(,"args":{"chunk":)" + fmt_u64(e.id) + "}}");
  }
}

void jsonl_event(std::ostream& os, const TraceEvent& e, bool wall) {
  char track_buf[24];
  std::snprintf(track_buf, sizeof track_buf, "%" PRId64, jsonl_track(e.track));
  os << R"({"t":)" << fmt(e.t) << R"(,"track":)" << track_buf
     << R"(,"kind":")" << kind_name(e.kind) << R"(","code":")"
     << code_name(e.kind, e.code) << R"(","id":)" << fmt_u64(e.id)
     << R"(,"value":)" << fmt(e.value) << R"(,"aux":)" << fmt(e.aux);
  if (wall) os << R"(,"wall":true)";
  os << "}\n";
}

} // namespace

void write_chrome_trace(const RunTrace& trace, std::ostream& os) {
  os << "{\"traceEvents\":[\n";
  Emitter out{os};
  std::map<double, CounterRow> counters;
  emit_metadata(out, trace);
  emit_sim_events(out, trace, counters);
  emit_counters(out, counters);
  emit_profile(out, trace);
  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

void write_jsonl_trace(const RunTrace& trace, std::ostream& os) {
  os << R"({"format":"spindown-trace","version":1,"horizon_s":)"
     << fmt(trace.horizon_s);
  if (!trace.profile.empty()) {
    os << R"(,"shards":)" << fmt_u64(trace.shards);
  }
  os << "}\n";
  for (const TraceEvent& e : trace.events) jsonl_event(os, e, false);
  for (const TraceEvent& e : trace.profile) jsonl_event(os, e, true);
}

bool write_trace_file(const std::string& path, const RunTrace& trace) {
  std::ofstream os{path, std::ios::binary};
  if (!os) return false;
  const bool jsonl =
      path.size() >= 6 && path.compare(path.size() - 6, 6, ".jsonl") == 0;
  if (jsonl) {
    write_jsonl_trace(trace, os);
  } else {
    write_chrome_trace(trace, os);
  }
  os.flush();
  return static_cast<bool>(os);
}

} // namespace spindown::obs
