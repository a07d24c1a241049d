// spec_roundtrip_fuzz_test.cpp — property test: parse(spec()) is the
// identity on every spec type, for randomized values of every knob.
//
// The canonical-string contract is what makes a scenario a value: any
// experiment a bench can express must survive a trip through its string
// form bit for bit.  Each iteration draws random knobs (including doubles
// with no short decimal representation), renders, re-parses, and re-renders;
// the two renderings must be identical, and the numeric fields must match
// exactly.
#include <gtest/gtest.h>

#include <random>

#include "sys/scenario.h"
#include "util/units.h"

namespace spindown::sys {
namespace {

class Fuzz {
public:
  explicit Fuzz(std::uint64_t seed) : rng_(seed) {}

  double real(double lo, double hi) {
    return std::uniform_real_distribution<double>{lo, hi}(rng_);
  }
  std::uint64_t integer(std::uint64_t lo, std::uint64_t hi) {
    return std::uniform_int_distribution<std::uint64_t>{lo, hi}(rng_);
  }
  bool coin() { return integer(0, 1) == 1; }

  PolicySpec policy() {
    switch (integer(0, 6)) {
      case 0: return PolicySpec::break_even();
      case 1: return PolicySpec::never();
      case 2: return PolicySpec::randomized();
      case 3: return PolicySpec::fixed(real(0.0, 7200.0));
      case 4: return PolicySpec::ewma(real(0.01, 1.0));
      case 5:
        return PolicySpec::share(static_cast<std::uint32_t>(integer(2, 64)));
      default: return PolicySpec::slack(real(1.0, 600.0));
    }
  }

  SchedulerSpec scheduler() {
    switch (integer(0, 4)) {
      case 0: return SchedulerSpec::fcfs();
      case 1: return SchedulerSpec::sstf();
      case 2: return SchedulerSpec::scan();
      case 3: return SchedulerSpec::clook();
      default:
        return SchedulerSpec::batch(
            static_cast<std::uint32_t>(integer(1, 128)), integer(1, 1 << 20));
    }
  }

  CacheSpec cache() {
    const auto cap = integer(1, util::tb(2.0));
    switch (integer(0, 3)) {
      case 0: return CacheSpec::none();
      case 1: return CacheSpec::lru(cap);
      case 2: return CacheSpec::fifo(cap);
      default: return CacheSpec::lfu(cap);
    }
  }

  WorkloadSpec workload() {
    const double horizon = real(10.0, 1e6);
    switch (integer(0, 2)) {
      case 0: return WorkloadSpec::poisson(real(0.01, 50.0), horizon);
      case 1: {
        std::vector<workload::RateSegment> segments;
        double t = 0.0;
        const auto n = integer(1, 5);
        for (std::uint64_t i = 0; i < n; ++i) {
          segments.push_back({t, real(0.0, 20.0)});
          t += real(1.0, 5000.0);
        }
        return WorkloadSpec::nhpp(std::move(segments), horizon,
                                  coin() ? real(100.0, 1e5) : 0.0);
      }
      default: {
        workload::MmppParams p;
        p.rate = {real(0.1, 30.0), real(0.01, 5.0)};
        p.mean_dwell = {real(1.0, 5000.0), real(1.0, 5000.0)};
        return WorkloadSpec::mmpp(p, horizon);
      }
    }
  }

  CatalogSpec catalog() {
    switch (integer(0, 2)) {
      case 0:
        return CatalogSpec::table1(integer(10, 100'000), integer(0, 1 << 30));
      case 1: {
        workload::SyntheticSpec s;
        s.n_files = integer(10, 100'000);
        s.zipf_exponent = coin() ? 0.0 : real(0.05, 2.0);
        s.max_size = integer(util::mb(1.0), util::tb(1.0));
        s.correlation = static_cast<workload::SizeCorrelation>(integer(0, 2));
        return CatalogSpec::synthetic(s, integer(0, 1 << 30));
      }
      default: {
        workload::NerscSpec n;
        n.n_files = integer(10, 100'000);
        n.n_requests = n.n_files + integer(0, 100'000);
        n.seed = integer(0, 1 << 30);
        if (coin()) n.duration_s = real(3600.0, 1e7);
        if (coin()) n.batch_fraction = real(0.0, 1.0);
        if (coin()) n.batch_min = integer(1, 8);
        if (coin()) n.batch_max = integer(8, 32);
        return CatalogSpec::nersc_synth(n);
      }
    }
  }

  ObsSpec obs() {
    ObsSpec o;
    // Half the draws stay fully off (the default); the rest toggle each
    // kind independently so every subset of the grammar gets exercised.
    if (coin()) {
      o.spans = coin();
      o.power = coin();
      o.policy = coin();
      o.metrics = coin();
      o.profile = coin();
      if (o.metrics && coin()) o.metrics_interval_s = real(0.001, 1e5);
    }
    return o;
  }

  OrchSpec orch() {
    OrchSpec o;
    // Half the draws stay off (the default, omitted from the canonical
    // string); the rest toggle each mechanism independently.  Knobs are
    // drawn only for enabled mechanisms — the grammar attaches them to
    // their mechanism token, so a disabled mechanism's knob cannot be
    // expressed (and must stay at its default to round-trip).
    if (coin()) return o;
    o.redirect = coin();
    o.offload = coin();
    if (o.offload) {
      if (coin()) o.log_disks = static_cast<std::uint32_t>(integer(1, 64));
      if (coin()) o.destage_deadline_s = real(0.001, 1e5);
      if (coin()) o.write_fraction = real(0.0, 1.0);
    }
    return o;
  }

  PlacementSpec placement() {
    switch (integer(0, 6)) {
      case 0: return PlacementSpec::pack();
      case 1:
        return PlacementSpec::grouped(
            static_cast<std::uint32_t>(integer(1, 64)));
      case 2: return PlacementSpec::random();
      case 3:
        return PlacementSpec::maid(static_cast<std::uint32_t>(integer(1, 16)));
      case 4: return PlacementSpec::sea(real(0.05, 1.0));
      case 5:
        return PlacementSpec::segregated(
            static_cast<std::uint32_t>(integer(1, 16)));
      default: return PlacementSpec::ffd();
    }
  }

  ScenarioSpec scenario() {
    ScenarioSpec s;
    s.catalog = catalog();
    s.placement = placement();
    s.load_fraction = real(0.01, 1.0);
    s.disks = static_cast<std::uint32_t>(integer(0, 500));
    s.policy = policy();
    s.scheduler = scheduler();
    s.cache = cache();
    s.workload = workload();
    s.seed = integer(0, ~0ULL >> 1);
    // Mostly the default (omitted from the canonical string), sometimes an
    // explicit count or "auto" (rendered for shards == 0).
    switch (integer(0, 3)) {
      case 0: s.shards = 0; break;
      case 1:
        s.shards = static_cast<std::uint32_t>(integer(2, 256));
        break;
      default: s.shards = 1; break;
    }
    s.obs = obs();
    // Replication degree (own top-level `replicas=` key, default omitted).
    if (coin()) {
      s.placement.replicas = static_cast<std::uint32_t>(integer(2, 16));
    }
    s.orch = orch();
    return s;
  }

private:
  std::mt19937_64 rng_;
};

constexpr int kIterations = 300;

TEST(SpecRoundTripFuzz, PolicySpecIdentity) {
  Fuzz fuzz{101};
  for (int i = 0; i < kIterations; ++i) {
    const auto s = fuzz.policy();
    SCOPED_TRACE(s.spec());
    const auto parsed = PolicySpec::parse(s.spec());
    EXPECT_EQ(parsed.spec(), s.spec());
    EXPECT_EQ(parsed.kind, s.kind);
    EXPECT_DOUBLE_EQ(parsed.fixed_threshold_s, s.fixed_threshold_s);
    EXPECT_DOUBLE_EQ(parsed.ewma_alpha, s.ewma_alpha);
    EXPECT_EQ(parsed.share_experts, s.share_experts);
    EXPECT_DOUBLE_EQ(parsed.slack_target_s, s.slack_target_s);
  }
}

TEST(SpecRoundTripFuzz, SchedulerSpecIdentity) {
  Fuzz fuzz{102};
  for (int i = 0; i < kIterations; ++i) {
    const auto s = fuzz.scheduler();
    SCOPED_TRACE(s.spec());
    const auto parsed = SchedulerSpec::parse(s.spec());
    EXPECT_EQ(parsed.spec(), s.spec());
    EXPECT_EQ(parsed.kind, s.kind);
    if (s.kind == SchedulerSpec::Kind::kBatch) {
      EXPECT_EQ(parsed.max_batch, s.max_batch);
      EXPECT_EQ(parsed.coalesce_gap_blocks, s.coalesce_gap_blocks);
    }
  }
}

TEST(SpecRoundTripFuzz, CacheSpecIdentity) {
  Fuzz fuzz{103};
  for (int i = 0; i < kIterations; ++i) {
    const auto s = fuzz.cache();
    SCOPED_TRACE(s.spec());
    const auto parsed = CacheSpec::parse(s.spec());
    EXPECT_EQ(parsed.spec(), s.spec());
    EXPECT_EQ(parsed.kind, s.kind);
    if (s.kind != CacheSpec::Kind::kNone) {
      EXPECT_EQ(parsed.capacity, s.capacity); // byte-exact through suffixes
    }
  }
}

TEST(SpecRoundTripFuzz, WorkloadSpecIdentity) {
  Fuzz fuzz{104};
  for (int i = 0; i < kIterations; ++i) {
    const auto s = fuzz.workload();
    SCOPED_TRACE(s.spec());
    const auto parsed = WorkloadSpec::parse(s.spec());
    EXPECT_EQ(parsed.spec(), s.spec());
    EXPECT_EQ(parsed.kind, s.kind);
    EXPECT_DOUBLE_EQ(parsed.horizon_s, s.horizon_s);
    ASSERT_EQ(parsed.segments.size(), s.segments.size());
    for (std::size_t k = 0; k < s.segments.size(); ++k) {
      EXPECT_DOUBLE_EQ(parsed.segments[k].start, s.segments[k].start);
      EXPECT_DOUBLE_EQ(parsed.segments[k].rate, s.segments[k].rate);
    }
  }
  EXPECT_EQ(WorkloadSpec::parse("replay").spec(), "replay");
}

TEST(SpecRoundTripFuzz, ObsSpecIdentity) {
  Fuzz fuzz{108};
  for (int i = 0; i < kIterations; ++i) {
    const auto s = fuzz.obs();
    SCOPED_TRACE(s.spec());
    const auto parsed = ObsSpec::parse(s.spec());
    EXPECT_EQ(parsed, s); // defaulted ==: every flag and the interval
    EXPECT_EQ(parsed.spec(), s.spec());
    EXPECT_EQ(parsed.kind_mask(), s.kind_mask());
  }
  // The aliases parse too, and "off" is the canonical empty rendering.
  EXPECT_EQ(ObsSpec::parse("all"), ObsSpec::all());
  EXPECT_EQ(ObsSpec::off().spec(), "off");
}

TEST(SpecRoundTripFuzz, OrchSpecIdentity) {
  Fuzz fuzz{109};
  for (int i = 0; i < kIterations; ++i) {
    const auto s = fuzz.orch();
    SCOPED_TRACE(s.spec());
    const auto parsed = OrchSpec::parse(s.spec());
    EXPECT_EQ(parsed, s); // defaulted ==: every mechanism and knob
    EXPECT_EQ(parsed.spec(), s.spec());
    EXPECT_EQ(parsed.enabled(), s.enabled());
  }
  EXPECT_EQ(OrchSpec::off().spec(), "off");
  EXPECT_FALSE(OrchSpec::parse("off").enabled());
}

TEST(SpecRoundTripFuzz, CatalogSpecIdentity) {
  Fuzz fuzz{105};
  for (int i = 0; i < kIterations; ++i) {
    const auto s = fuzz.catalog();
    SCOPED_TRACE(s.spec());
    EXPECT_EQ(CatalogSpec::parse(s.spec()).spec(), s.spec());
  }
}

TEST(SpecRoundTripFuzz, PlacementSpecIdentity) {
  Fuzz fuzz{106};
  for (int i = 0; i < kIterations; ++i) {
    const auto s = fuzz.placement();
    SCOPED_TRACE(s.spec());
    EXPECT_EQ(PlacementSpec::parse(s.spec()).spec(), s.spec());
  }
}

TEST(SpecRoundTripFuzz, ComposedScenarioIdentity) {
  Fuzz fuzz{107};
  for (int i = 0; i < kIterations; ++i) {
    const auto s = fuzz.scenario();
    SCOPED_TRACE(s.spec());
    const auto parsed = ScenarioSpec::parse(s.spec());
    EXPECT_EQ(parsed, s);               // canonical-name equality
    EXPECT_EQ(parsed.spec(), s.spec()); // and the string is a fixed point
  }
}

} // namespace
} // namespace spindown::sys
