#include "sys/experiment.h"

#include <algorithm>
#include <stdexcept>

#include "cache/lfu.h"
#include "cache/recency.h"
#include "obs/trace.h"
#include "sys/fleet.h"
#include "sys/spec_grammar.h"

namespace spindown::sys {
namespace {

double parse_number(const std::string& s, const std::string& context) {
  return detail::parse_number(s, context, "WorkloadSpec");
}

std::vector<std::string> parse_call(const std::string& name,
                                    const std::string& head) {
  return detail::parse_call(name, head, "WorkloadSpec");
}

using detail::split;

constexpr double kMaxMetricTicks = 1e6;

const workload::Trace& replayed(const workload::Trace* trace) {
  if (trace == nullptr) {
    throw std::invalid_argument{
        "WorkloadSpec: 'replay' must be resolved against a scenario "
        "catalog that carries a trace (sys::resolve_scenario)"};
  }
  return *trace;
}

} // namespace

std::uint32_t ObsSpec::kind_mask() const {
  std::uint32_t mask = 0;
  if (spans) mask |= obs::kind_bit(obs::Kind::kSpan);
  if (power) mask |= obs::kind_bit(obs::Kind::kPower);
  if (policy) mask |= obs::kind_bit(obs::Kind::kPolicy);
  if (metrics) mask |= obs::kind_bit(obs::Kind::kMetric);
  if (profile) mask |= obs::kind_bit(obs::Kind::kProfile);
  return mask;
}

std::string ObsSpec::spec() const {
  if (!enabled()) return "off";
  std::string out;
  const auto add = [&out](const std::string& token) {
    if (!out.empty()) out += "+";
    out += token;
  };
  if (spans) add("spans");
  if (power) add("power");
  if (policy) add("policy");
  if (metrics) {
    add(metrics_interval_s == 60.0
            ? std::string{"metrics"}
            : "metrics:" + util::format_roundtrip(metrics_interval_s));
  }
  if (profile) add("profile");
  return out;
}

void ObsSpec::check_metric_ticks(double horizon_s) const {
  if (!metrics) return;
  const double ticks = horizon_s / metrics_interval_s;
  if (ticks > kMaxMetricTicks) {
    throw std::invalid_argument{
        "ObsSpec: obs=metrics:" + util::format_roundtrip(metrics_interval_s) +
        " over a " + util::format_roundtrip(horizon_s) +
        " s horizon samples " + util::format_roundtrip(ticks) +
        " ticks, more than " + util::format_roundtrip(kMaxMetricTicks) +
        "; use a longer interval"};
  }
}

ObsSpec ObsSpec::parse(const std::string& name) {
  if (name == "off") return off();
  if (name == "all") return all();
  ObsSpec o;
  for (const auto& token : split(name, '+')) {
    if (token == "spans") {
      o.spans = true;
    } else if (token == "power") {
      o.power = true;
    } else if (token == "policy") {
      o.policy = true;
    } else if (token == "profile") {
      o.profile = true;
    } else if (token == "metrics") {
      o.metrics = true;
    } else if (token.rfind("metrics:", 0) == 0) {
      o.metrics = true;
      const double interval =
          detail::parse_number(token.substr(8), name, "ObsSpec");
      if (interval <= 0.0) {
        throw std::invalid_argument{
            "ObsSpec: metrics interval must be positive in '" + name + "'"};
      }
      o.metrics_interval_s = interval;
    } else {
      throw std::invalid_argument{
          "ObsSpec: unknown kind '" + token + "' in '" + name +
          "' (want off|all or '+'-joined "
          "spans|power|policy|metrics[:interval]|profile)"};
    }
  }
  return o;
}

std::string OrchSpec::spec() const {
  if (!enabled()) return "off";
  std::string out;
  const auto add = [&out](const std::string& token) {
    if (!out.empty()) out += "+";
    out += token;
  };
  if (redirect) add("redirect");
  if (offload) {
    std::string token = "offload";
    // Knobs render outside-in: the deadline cannot appear without the
    // log-disk count, so an off-default deadline forces both.
    if (log_disks != 1 || destage_deadline_s != 600.0) {
      token += ":";
      token += std::to_string(log_disks);
      if (destage_deadline_s != 600.0) {
        token += ":";
        token += util::format_roundtrip(destage_deadline_s);
      }
    }
    add(token);
    if (write_fraction != 0.2) {
      std::string writes = "writes:";
      writes += util::format_roundtrip(write_fraction);
      add(writes);
    }
  }
  return out;
}

OrchSpec OrchSpec::parse(const std::string& name) {
  if (name == "off") return off();
  OrchSpec o;
  bool writes = false;
  for (const auto& token : split(name, '+')) {
    if (token == "redirect") {
      o.redirect = true;
    } else if (token == "offload") {
      o.offload = true;
    } else if (token.rfind("offload:", 0) == 0) {
      o.offload = true;
      const auto knobs = split(token.substr(8), ':');
      if (knobs.empty() || knobs.size() > 2) {
        throw std::invalid_argument{
            "OrchSpec: want offload[:log_disks[:deadline_s]] in '" + name +
            "'"};
      }
      const double disks = detail::parse_number(knobs[0], name, "OrchSpec");
      if (disks < 1.0 || disks > 64.0 ||
          disks != static_cast<double>(static_cast<std::uint32_t>(disks))) {
        throw std::invalid_argument{
            "OrchSpec: log_disks must be an integer in [1, 64] in '" + name +
            "'"};
      }
      o.log_disks = static_cast<std::uint32_t>(disks);
      if (knobs.size() == 2) {
        const double dl = detail::parse_number(knobs[1], name, "OrchSpec");
        if (dl <= 0.0) {
          throw std::invalid_argument{
              "OrchSpec: destage deadline must be positive in '" + name +
              "'"};
        }
        o.destage_deadline_s = dl;
      }
    } else if (token.rfind("writes:", 0) == 0) {
      const double frac = detail::parse_number(token.substr(7), name,
                                               "OrchSpec");
      if (!(frac >= 0.0 && frac <= 1.0)) {
        throw std::invalid_argument{
            "OrchSpec: write fraction must be in [0, 1] in '" + name + "'"};
      }
      o.write_fraction = frac;
      writes = true;
    } else {
      throw std::invalid_argument{
          "OrchSpec: unknown mechanism '" + token + "' in '" + name +
          "' (want off or '+'-joined redirect|offload[:L[:deadline]]|"
          "writes:<frac>)"};
    }
  }
  if (writes && !o.offload) {
    // Only offload classifies writes; spec() could not echo the knob.
    throw std::invalid_argument{
        "OrchSpec: writes:<frac> needs offload in '" + name + "'"};
  }
  return o;
}

std::unique_ptr<cache::FileCache> CacheSpec::make() const {
  switch (kind) {
    case Kind::kNone: return nullptr;
    case Kind::kLru: return std::make_unique<cache::LruCache>(capacity);
    case Kind::kFifo: return std::make_unique<cache::FifoCache>(capacity);
    case Kind::kLfu: return std::make_unique<cache::LfuCache>(capacity);
  }
  throw std::logic_error{"CacheSpec: unknown kind"};
}

std::string CacheSpec::spec() const {
  switch (kind) {
    case Kind::kNone: return "none";
    case Kind::kLru: return "lru:" + util::format_bytes_spec(capacity);
    case Kind::kFifo: return "fifo:" + util::format_bytes_spec(capacity);
    case Kind::kLfu: return "lfu:" + util::format_bytes_spec(capacity);
  }
  throw std::logic_error{"CacheSpec: unknown kind"};
}

CacheSpec CacheSpec::parse(const std::string& name) {
  if (name == "none") return none();
  const auto colon = name.find(':');
  const std::string head = name.substr(0, colon);
  Kind kind;
  if (head == "lru") kind = Kind::kLru;
  else if (head == "fifo") kind = Kind::kFifo;
  else if (head == "lfu") kind = Kind::kLfu;
  else {
    throw std::invalid_argument{"CacheSpec: unknown cache '" + name +
                                "' (want none|lru[:cap]|fifo[:cap]|lfu[:cap])"};
  }
  CacheSpec spec{kind, util::gb(16.0)};
  if (colon != std::string::npos) {
    const std::string arg = name.substr(colon + 1);
    const auto cap = util::parse_bytes(arg);
    if (!cap.has_value() || *cap == 0) {
      throw std::invalid_argument{"CacheSpec: bad capacity '" + arg +
                                  "' in '" + name + "' (want e.g. 16g, 512m)"};
    }
    spec.capacity = *cap;
  }
  return spec;
}

std::unique_ptr<workload::RequestStream> WorkloadSpec::make_stream(
    const workload::FileCatalog& catalog, std::uint64_t seed) const {
  switch (kind) {
    case Kind::kPoisson:
      return std::make_unique<workload::ArrivalZipfStream>(
          catalog, std::make_unique<workload::PoissonArrivals>(rate),
          horizon_s, util::Rng{seed});
    case Kind::kNhpp:
      return std::make_unique<workload::ArrivalZipfStream>(
          catalog,
          std::make_unique<workload::PiecewiseRateArrivals>(segments,
                                                            period_s),
          horizon_s, util::Rng{seed});
    case Kind::kMmpp:
      return std::make_unique<workload::ArrivalZipfStream>(
          catalog, std::make_unique<workload::MmppArrivals>(mmpp_params),
          horizon_s, util::Rng{seed});
    case Kind::kReplay:
      return std::make_unique<workload::TraceStream>(replayed(trace));
  }
  throw std::logic_error{"WorkloadSpec: unknown kind"};
}

double WorkloadSpec::measurement_horizon() const {
  // +1 s so the request landing exactly at the trace end is inside the
  // measurement window.
  if (kind == Kind::kReplay) return replayed(trace).duration() + 1.0;
  return horizon_s;
}

double WorkloadSpec::mean_rate() const {
  switch (kind) {
    case Kind::kPoisson: return rate;
    case Kind::kNhpp: {
      // Time-average of the piecewise-constant rate over one period (the
      // pattern wraps) or over the horizon (last segment holds to the end).
      const double span = period_s > 0.0 ? period_s : horizon_s;
      if (segments.empty() || span <= 0.0) return 0.0;
      double integral = 0.0;
      for (std::size_t i = 0; i < segments.size(); ++i) {
        const double start = std::min(segments[i].start, span);
        const double end =
            i + 1 < segments.size() ? std::min(segments[i + 1].start, span)
                                    : span;
        if (end > start) integral += segments[i].rate * (end - start);
      }
      return integral / span;
    }
    case Kind::kMmpp: {
      const double dwell =
          mmpp_params.mean_dwell[0] + mmpp_params.mean_dwell[1];
      if (dwell <= 0.0) return 0.0;
      return (mmpp_params.rate[0] * mmpp_params.mean_dwell[0] +
              mmpp_params.rate[1] * mmpp_params.mean_dwell[1]) /
             dwell;
    }
    case Kind::kReplay: {
      const auto& t = replayed(trace);
      return static_cast<double>(t.size()) / std::max(1.0, t.duration());
    }
  }
  throw std::logic_error{"WorkloadSpec: unknown kind"};
}

std::string WorkloadSpec::spec() const {
  switch (kind) {
    case Kind::kPoisson:
      return "poisson(" + util::format_roundtrip(rate) + "," +
             util::format_roundtrip(horizon_s) + ")";
    case Kind::kNhpp: {
      std::string segs;
      for (std::size_t i = 0; i < segments.size(); ++i) {
        if (i > 0) segs += ";";
        segs += util::format_roundtrip(segments[i].start) + ":" +
                util::format_roundtrip(segments[i].rate);
      }
      std::string out = "nhpp(";
      out += segs;
      out += ",";
      out += util::format_roundtrip(horizon_s);
      if (period_s > 0.0) {
        out += ",";
        out += util::format_roundtrip(period_s);
      }
      out += ")";
      return out;
    }
    case Kind::kMmpp:
      return "mmpp(" + util::format_roundtrip(mmpp_params.rate[0]) + "," +
             util::format_roundtrip(mmpp_params.rate[1]) + "," +
             util::format_roundtrip(mmpp_params.mean_dwell[0]) + "," +
             util::format_roundtrip(mmpp_params.mean_dwell[1]) + "," +
             util::format_roundtrip(horizon_s) + ")";
    case Kind::kReplay: return "replay";
  }
  throw std::logic_error{"WorkloadSpec: unknown kind"};
}

WorkloadSpec WorkloadSpec::parse(const std::string& name) {
  if (name == "replay") return replay_catalog();
  if (name.rfind("poisson", 0) == 0) {
    const auto args = parse_call(name, "poisson");
    if (args.size() != 2) {
      throw std::invalid_argument{
          "WorkloadSpec: want poisson(rate,horizon), got '" + name + "'"};
    }
    return poisson(parse_number(args[0], name), parse_number(args[1], name));
  }
  if (name.rfind("nhpp", 0) == 0) {
    const auto args = parse_call(name, "nhpp");
    if (args.size() != 2 && args.size() != 3) {
      throw std::invalid_argument{
          "WorkloadSpec: want nhpp(t:r;...,horizon[,period]), got '" + name +
          "'"};
    }
    std::vector<workload::RateSegment> segments;
    for (const auto& seg : split(args[0], ';')) {
      const auto parts = split(seg, ':');
      if (parts.size() != 2) {
        throw std::invalid_argument{"WorkloadSpec: bad segment '" + seg +
                                    "' in '" + name + "'"};
      }
      segments.push_back({parse_number(parts[0], name),
                          parse_number(parts[1], name)});
    }
    const double horizon = parse_number(args[1], name);
    const double period =
        args.size() == 3 ? parse_number(args[2], name) : 0.0;
    if (period < 0.0) {
      // spec() writes only a positive period, so it could not echo this.
      throw std::invalid_argument{"WorkloadSpec: nhpp period must not be "
                                  "negative in '" + name + "'"};
    }
    return nhpp(std::move(segments), horizon, period);
  }
  if (name.rfind("mmpp", 0) == 0) {
    const auto args = parse_call(name, "mmpp");
    if (args.size() != 5) {
      throw std::invalid_argument{
          "WorkloadSpec: want mmpp(r0,r1,d0,d1,horizon), got '" + name + "'"};
    }
    workload::MmppParams p;
    p.rate[0] = parse_number(args[0], name);
    p.rate[1] = parse_number(args[1], name);
    p.mean_dwell[0] = parse_number(args[2], name);
    p.mean_dwell[1] = parse_number(args[3], name);
    return mmpp(p, parse_number(args[4], name));
  }
  throw std::invalid_argument{
      "WorkloadSpec: unknown workload '" + name +
      "' (want poisson(R,T)|nhpp(t:r;...,T[,P])|mmpp(r0,r1,d0,d1,T)|"
      "replay)"};
}

RunResult run_experiment(const ExperimentConfig& config, obs::RunTrace* trace,
                         FleetPerf* perf) {
  RunResult result;
  for (const auto& p : run_fleet_partials(
           config, effective_shards(config.shards, config.num_disks), perf,
           trace)) {
    result.merge(p);
  }
#ifndef NDEBUG
  check_conservation(result, config.params);
#endif
  return result;
}

} // namespace spindown::sys
