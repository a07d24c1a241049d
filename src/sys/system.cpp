#include "sys/system.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <string>

#include "sys/spec_grammar.h"

namespace spindown::sys {

std::string SchedulerSpec::spec() const {
  switch (kind) {
    case Kind::kFcfs: return "fcfs";
    case Kind::kSstf: return "sstf";
    case Kind::kScan: return "scan";
    case Kind::kClook: return "clook";
    case Kind::kBatch: {
      std::string out = "batch";
      out += std::to_string(max_batch);
      if (coalesce_gap_blocks != SchedulerSpec::batch().coalesce_gap_blocks) {
        out += "x";
        out += std::to_string(coalesce_gap_blocks);
      }
      return out;
    }
  }
  throw std::logic_error{"SchedulerSpec: unknown kind"};
}

SchedulerSpec SchedulerSpec::parse(const std::string& name) {
  if (name == "fcfs") return fcfs();
  if (name == "sstf") return sstf();
  if (name == "scan") return scan();
  if (name == "clook") return clook();
  // "batch", "batchN" (N = max batch size) or "batchNxG" (G = coalesce gap
  // in blocks; what spec() emits for non-default gaps).  batch1[xG] is
  // clook: batch() canonicalizes it.
  if (name.rfind("batch", 0) == 0) {
    std::string suffix = name.substr(5);
    if (suffix.empty()) return batch();
    std::uint64_t gap = SchedulerSpec::batch().coalesce_gap_blocks;
    if (const auto x = suffix.find('x'); x != std::string::npos) {
      gap = detail::parse_unsigned(suffix.substr(x + 1), name,
                                   "SchedulerSpec");
      suffix = suffix.substr(0, x);
    }
    const auto n = detail::parse_unsigned(suffix, name, "SchedulerSpec");
    if (n == 0 || n > std::numeric_limits<std::uint32_t>::max()) {
      throw std::invalid_argument{
          "SchedulerSpec: batch size out of range in '" + name + "'"};
    }
    return batch(static_cast<std::uint32_t>(n), gap);
  }
  throw std::invalid_argument{"SchedulerSpec: unknown scheduler '" + name +
                              "' (want fcfs|sstf|scan|clook|batch[N[xG]])"};
}

std::unique_ptr<disk::SpinDownPolicy> PolicySpec::make(
    const disk::DiskParams& p) const {
  switch (kind) {
    case Kind::kBreakEven:
      return std::make_unique<disk::FixedThresholdPolicy>(
          p.break_even_threshold());
    case Kind::kFixed:
      return std::make_unique<disk::FixedThresholdPolicy>(fixed_threshold_s);
    case Kind::kNever: return std::make_unique<disk::NeverSpinDownPolicy>();
    case Kind::kRandomized:
      return std::make_unique<disk::RandomizedCompetitivePolicy>(p);
    case Kind::kEwma:
      return std::make_unique<adapt::EwmaIdlePredictorPolicy>(p, ewma_alpha);
    case Kind::kShare:
      return std::make_unique<adapt::ShareThresholdPolicy>(p, share_experts);
    case Kind::kSlack:
      return std::make_unique<adapt::SlackAwarePolicy>(p, slack_target_s);
  }
  throw std::logic_error{"PolicySpec: unknown kind"};
}

std::string PolicySpec::spec() const {
  switch (kind) {
    case Kind::kBreakEven: return "break-even";
    case Kind::kNever: return "never";
    case Kind::kRandomized: return "randomized";
    case Kind::kFixed:
      return "fixed:" + util::format_roundtrip(fixed_threshold_s);
    case Kind::kEwma: return "ewma:" + util::format_roundtrip(ewma_alpha);
    case Kind::kShare: return "share:" + std::to_string(share_experts);
    case Kind::kSlack: return "slack:" + util::format_roundtrip(slack_target_s);
  }
  throw std::logic_error{"PolicySpec: unknown kind"};
}

PolicySpec PolicySpec::parse(const std::string& name) {
  const auto colon = name.find(':');
  const std::string head = name.substr(0, colon);
  const bool has_arg = colon != std::string::npos && colon + 1 < name.size();
  const std::string arg = has_arg ? name.substr(colon + 1) : std::string{};
  const auto numeric_arg = [&](double fallback) {
    if (!has_arg) return fallback;
    const auto v = util::parse_finite_double(arg);
    if (!v.has_value()) {
      throw std::invalid_argument{"PolicySpec: bad number '" + arg +
                                  "' in '" + name + "'"};
    }
    return *v;
  };
  if (head == "break-even") return break_even();
  if (head == "never") return never();
  if (head == "randomized") return randomized();
  if (head == "fixed") {
    if (!has_arg) {
      throw std::invalid_argument{"PolicySpec: fixed needs a threshold "
                                  "(fixed:<seconds>)"};
    }
    const double t = numeric_arg(0.0);
    if (t < 0.0) {
      throw std::invalid_argument{"PolicySpec: fixed threshold must be >= 0, "
                                  "got '" + name + "'"};
    }
    return fixed(t);
  }
  if (head == "ewma") {
    const double alpha = numeric_arg(PolicySpec{}.ewma_alpha);
    if (!(alpha > 0.0 && alpha <= 1.0)) {
      throw std::invalid_argument{"PolicySpec: ewma alpha must be in (0, 1], "
                                  "got '" + name + "'"};
    }
    return ewma(alpha);
  }
  if (head == "share") {
    const double n =
        numeric_arg(static_cast<double>(PolicySpec{}.share_experts));
    // Range-check before the cast: an out-of-range float-to-int conversion
    // is undefined behavior, not a detectable error.
    if (n < 2.0 || n > 4096.0 || n != std::floor(n)) {
      throw std::invalid_argument{"PolicySpec: share expert count must be an "
                                  "integer in [2, 4096]"};
    }
    return share(static_cast<std::uint32_t>(n));
  }
  if (head == "slack") {
    const double slo = numeric_arg(PolicySpec{}.slack_target_s);
    if (!(slo > 0.0)) {
      throw std::invalid_argument{"PolicySpec: slack SLO must be > 0, got '" +
                                  name + "'"};
    }
    return slack(slo);
  }
  throw std::invalid_argument{
      "PolicySpec: unknown policy '" + name +
      "' (want break-even|never|randomized|fixed:T|ewma[:a]|share[:n]|"
      "slack[:slo])"};
}

void RunResult::recompute_from_per_disk(const stats::LinearHistogram& hist) {
  power.energy = 0.0;
  power.always_on_energy = 0.0;
  power.spin_ups = 0;
  power.spin_downs = 0;
  power.state_time.fill(0.0);
  completed_at_horizon = 0;
  in_flight_at_horizon = 0;
  // Canonical fold: the cache-hit moments first, then every disk's moments
  // in disk-id order.  Welford's combine is floating-point-order-dependent,
  // so fixing this order — rather than using completion order or shard
  // arrival order — is what makes the result identical at any shard count.
  stats::Welford fold = hits_response;
  for (const auto& m : per_disk) {
    power.energy += m.energy_j;
    power.always_on_energy += m.always_on_j;
    power.spin_ups += m.spin_ups;
    power.spin_downs += m.spin_downs;
    for (std::size_t i = 0; i < disk::kPowerStateCount; ++i) {
      power.state_time[i] += m.state_time[i];
    }
    completed_at_horizon += m.served;
    in_flight_at_horizon += m.queued + m.in_service;
    fold.merge(m.response);
  }
  power.average_power =
      power.horizon_s > 0.0 ? power.energy / power.horizon_s : 0.0;
  power.saving_vs_always_on =
      power.always_on_energy > 0.0
          ? 1.0 - power.energy / power.always_on_energy
          : 0.0;
  response = stats::ResponseSummary::from_parts(fold, hist);
}

void check_conservation(const RunResult& r, const disk::DiskParams& params) {
  util::Joules by_state = 0.0;
  for (const auto& m : r.per_disk) {
    for (std::size_t s = 0; s < disk::kPowerStateCount; ++s) {
      by_state += m.state_time[s] *
                  disk::power_of(static_cast<disk::PowerState>(s), params);
    }
  }
  const double scale = std::max(std::abs(r.power.energy), 1e-300);
  if (!(std::abs(by_state - r.power.energy) / scale <= 1e-9)) {
    throw std::logic_error{
        "RunResult: energy " + util::format_roundtrip(r.power.energy) +
        " J != sum of state_time x state power " +
        util::format_roundtrip(by_state) + " J"};
  }
  const std::uint64_t accounted =
      r.completed_at_horizon + r.in_flight_at_horizon + r.cache.hits;
  if (r.requests != accounted) {
    throw std::logic_error{
        "RunResult: requests " + std::to_string(r.requests) +
        " != completed + in flight + cache hits " +
        std::to_string(accounted) + " (" +
        std::to_string(r.completed_at_horizon) + " + " +
        std::to_string(r.in_flight_at_horizon) + " + " +
        std::to_string(r.cache.hits) + ")"};
  }
}

RunResult& RunResult::merge(const RunResult& other) {
  // A default-constructed RunResult acts as the fold identity.
  const bool identity = per_disk.empty() && response.count() == 0 &&
                        requests == 0 && power.horizon_s == 0.0;
  if (identity) {
    power.horizon_s = other.power.horizon_s;
  } else if (power.horizon_s != other.power.horizon_s) {
    throw std::invalid_argument{
        "RunResult::merge: operands measured over different horizons"};
  }
  std::vector<disk::DiskMetrics> merged;
  merged.reserve(per_disk.size() + other.per_disk.size());
  std::merge(per_disk.begin(), per_disk.end(), other.per_disk.begin(),
             other.per_disk.end(), std::back_inserter(merged),
             [](const disk::DiskMetrics& a, const disk::DiskMetrics& b) {
               return a.disk_id < b.disk_id;
             });
  for (std::size_t i = 1; i < merged.size(); ++i) {
    if (merged[i - 1].disk_id == merged[i].disk_id) {
      throw std::invalid_argument{
          "RunResult::merge: operands share disk id " +
          std::to_string(merged[i].disk_id) +
          " (sub-simulations must cover disjoint disk groups)"};
    }
  }
  per_disk = std::move(merged);
  hits_response.merge(other.hits_response);
  cache.hits += other.cache.hits;
  cache.misses += other.cache.misses;
  cache.evictions += other.cache.evictions;
  requests += other.requests;
  events += other.events;
  auto hist = response.histogram();
  hist.merge(other.response.histogram());
  recompute_from_per_disk(hist);
  return *this;
}

} // namespace spindown::sys
