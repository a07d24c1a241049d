#include "sys/experiment.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "cache/lfu.h"
#include "cache/recency.h"
#include "obs/trace.h"
#include "util/units.h"

namespace spindown::sys {
namespace {

workload::FileCatalog small_catalog() {
  std::vector<workload::FileInfo> files(8);
  for (std::size_t i = 0; i < files.size(); ++i) {
    files[i].id = static_cast<workload::FileId>(i);
    files[i].size = util::mb(50.0 + 10.0 * static_cast<double>(i));
    files[i].popularity = 1.0 / 8.0;
  }
  return workload::FileCatalog{files};
}

TEST(CacheSpec, Factories) {
  EXPECT_EQ(CacheSpec::none().make(), nullptr);
  auto lru = CacheSpec::lru(util::mb(100.0)).make();
  EXPECT_NE(dynamic_cast<cache::LruCache*>(lru.get()), nullptr);
  EXPECT_EQ(lru->capacity(), util::mb(100.0));
  EXPECT_NE(dynamic_cast<cache::FifoCache*>(CacheSpec::fifo().make().get()),
            nullptr);
  EXPECT_NE(dynamic_cast<cache::LfuCache*>(CacheSpec::lfu().make().get()),
            nullptr);
}

TEST(CacheSpec, SpecRoundTripsEveryKind) {
  const std::vector<std::pair<CacheSpec, std::string>> cases{
      {CacheSpec::none(), "none"},
      {CacheSpec::lru(), "lru:16g"},
      {CacheSpec::fifo(util::gb(4.0)), "fifo:4g"},
      {CacheSpec::lfu(util::gb(16.0)), "lfu:16g"},
      {CacheSpec::lru(util::mb(1500.0)), "lru:1500m"},
      // A capacity with no even SI divisor renders as plain bytes.
      {CacheSpec::lru(1'234'567), "lru:1234567"},
  };
  for (const auto& [spec, key] : cases) {
    SCOPED_TRACE(key);
    EXPECT_EQ(spec.spec(), key);
    const auto parsed = CacheSpec::parse(key);
    EXPECT_EQ(parsed.kind, spec.kind);
    EXPECT_EQ(parsed.capacity, spec.capacity);
    EXPECT_EQ(parsed.spec(), key);
  }
}

TEST(CacheSpec, ParseAcceptsSuffixVariantsAndBareNames) {
  EXPECT_EQ(CacheSpec::parse("lru").capacity, util::gb(16.0)); // §5.1 default
  EXPECT_EQ(CacheSpec::parse("lru:16gb").capacity, util::gb(16.0));
  EXPECT_EQ(CacheSpec::parse("fifo:0.5g").capacity, util::mb(500.0));
  EXPECT_EQ(CacheSpec::parse("lfu:512M").capacity, util::mb(512.0));
}

TEST(CacheSpec, ParseRejectsGarbage) {
  EXPECT_THROW(CacheSpec::parse("arc:16g"), std::invalid_argument);
  EXPECT_THROW(CacheSpec::parse("lru:"), std::invalid_argument);
  EXPECT_THROW(CacheSpec::parse("lru:0"), std::invalid_argument);
  EXPECT_THROW(CacheSpec::parse("lru:sixteen"), std::invalid_argument);
  EXPECT_THROW(CacheSpec::parse("lru:-4g"), std::invalid_argument);
}

TEST(OrchSpec, ParseRejectsOrphanWritesAndRetiredTokens) {
  // writes: only classifies requests for offload; without it spec() could
  // not echo the knob, so parse(spec()) would silently drop it.
  EXPECT_THROW(OrchSpec::parse("redirect+writes:0.5"), std::invalid_argument);
  EXPECT_THROW(OrchSpec::parse("writes:0.5"), std::invalid_argument);
  const auto with_offload = OrchSpec::parse("writes:0.5+redirect+offload");
  EXPECT_DOUBLE_EQ(with_offload.write_fraction, 0.5);
  EXPECT_EQ(with_offload.spec(), "redirect+offload+writes:0.5");

  // budget is not a mechanism; the error names the rejected token.
  for (const std::string token : {"budget", "budget:p99:1"}) {
    SCOPED_TRACE(token);
    try {
      OrchSpec::parse("redirect+" + token);
      ADD_FAILURE() << "parse accepted " << token;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string{e.what()}.find("'" + token + "'"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(RunExperiment, RequiresCatalog) {
  ExperimentConfig cfg;
  EXPECT_THROW(run_experiment(cfg), std::invalid_argument);
}

TEST(RunExperiment, PoissonWorkloadEndToEnd) {
  const auto cat = small_catalog();
  ExperimentConfig cfg;
  cfg.catalog = &cat;
  cfg.mapping = {0, 0, 0, 0, 1, 1, 1, 1};
  cfg.num_disks = 4;
  cfg.workload = WorkloadSpec::poisson(0.5, 300.0);
  cfg.seed = 3;
  const auto r = run_experiment(cfg);
  EXPECT_GT(r.requests, 100u);
  EXPECT_EQ(r.response.count(), r.requests);
  EXPECT_DOUBLE_EQ(r.power.horizon_s, 300.0);
  EXPECT_GT(r.power.energy, 0.0);
  EXPECT_EQ(r.per_disk.size(), 4u);
}

TEST(RunExperiment, UnboundedMetricsTickCountThrowsBeforeTheRun) {
  // A hand-built config never passes scenario resolution; the run driver
  // applies the same tick cap instead of sampling ~3e302 ticks.
  const auto cat = small_catalog();
  ExperimentConfig cfg;
  cfg.catalog = &cat;
  cfg.mapping = {0, 0, 0, 0, 1, 1, 1, 1};
  cfg.num_disks = 2;
  cfg.workload = WorkloadSpec::poisson(0.5, 300.0);
  cfg.obs.metrics = true;
  cfg.obs.metrics_interval_s = 1e-300;
  obs::RunTrace trace;
  try {
    (void)run_experiment(cfg, &trace);
    FAIL() << "a 1e-300 s metrics interval ran";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find(
                  "obs=metrics:1e-300 over a 300 s horizon samples"),
              std::string::npos)
        << e.what();
  }
  EXPECT_TRUE(trace.events.empty());
}

TEST(RunExperiment, TraceWorkloadEndToEnd) {
  const auto cat = small_catalog();
  const workload::Trace trace{cat, {1.0, 2.0, 50.0}, {0, 3, 7}};
  ExperimentConfig cfg;
  cfg.catalog = &cat;
  cfg.mapping = {0, 0, 0, 0, 0, 0, 0, 0};
  cfg.num_disks = 1;
  cfg.workload = WorkloadSpec::replay(trace);
  const auto r = run_experiment(cfg);
  EXPECT_EQ(r.requests, 3u);
  EXPECT_DOUBLE_EQ(r.power.horizon_s, trace.duration() + 1.0);
}

TEST(RunExperiment, TraceWorkloadNeedsTrace) {
  const auto cat = small_catalog();
  ExperimentConfig cfg;
  cfg.catalog = &cat;
  cfg.mapping.assign(8, 0);
  cfg.num_disks = 1;
  cfg.workload = WorkloadSpec::replay_catalog(); // no trace filled in
  EXPECT_THROW(run_experiment(cfg), std::invalid_argument);
}

TEST(RunExperiment, CacheReducesDiskTraffic) {
  const auto cat = small_catalog();
  // Same file requested repeatedly: with a cache only the first goes to disk.
  std::vector<double> times;
  for (int i = 0; i < 20; ++i) times.push_back(static_cast<double>(i) * 10.0);
  const workload::Trace trace{cat, times,
                              std::vector<workload::FileId>(20, 2)};

  ExperimentConfig cfg;
  cfg.catalog = &cat;
  cfg.mapping.assign(8, 0);
  cfg.num_disks = 1;
  cfg.workload = WorkloadSpec::replay(trace);

  const auto no_cache = run_experiment(cfg);
  cfg.cache = CacheSpec::lru(util::gb(1.0));
  const auto cached = run_experiment(cfg);

  EXPECT_EQ(cached.cache.hits, 19u);
  EXPECT_EQ(cached.cache.misses, 1u);
  EXPECT_LT(cached.power.energy, no_cache.power.energy);
  // Cache hits respond instantly: mean response must collapse.
  EXPECT_LT(cached.response.mean(), no_cache.response.mean() * 0.2);
}

TEST(PolicySpec, SpecRoundTripsEveryKind) {
  const std::vector<PolicySpec> specs{
      PolicySpec::break_even(),  PolicySpec::never(),
      PolicySpec::randomized(),  PolicySpec::fixed(10.5),
      // A value with no short decimal representation: the round-trip must
      // still be exact (format_roundtrip, not fixed-precision printing).
      PolicySpec::fixed(1.0 / 3.0),
      PolicySpec::ewma(0.125),   PolicySpec::share(20),
      PolicySpec::slack(42.25)};
  for (const auto& s : specs) {
    SCOPED_TRACE(s.spec());
    const auto parsed = PolicySpec::parse(s.spec());
    EXPECT_EQ(parsed.kind, s.kind);
    EXPECT_DOUBLE_EQ(parsed.fixed_threshold_s, s.fixed_threshold_s);
    EXPECT_DOUBLE_EQ(parsed.ewma_alpha, s.ewma_alpha);
    EXPECT_EQ(parsed.share_experts, s.share_experts);
    EXPECT_DOUBLE_EQ(parsed.slack_target_s, s.slack_target_s);
    EXPECT_EQ(parsed.spec(), s.spec());
  }
}

TEST(PolicySpec, ParseAcceptsBareAdaptiveNamesWithDefaults) {
  EXPECT_EQ(PolicySpec::parse("ewma").kind, PolicySpec::Kind::kEwma);
  EXPECT_DOUBLE_EQ(PolicySpec::parse("ewma").ewma_alpha,
                   PolicySpec{}.ewma_alpha);
  EXPECT_EQ(PolicySpec::parse("share").share_experts,
            PolicySpec{}.share_experts);
  EXPECT_DOUBLE_EQ(PolicySpec::parse("slack").slack_target_s,
                   PolicySpec{}.slack_target_s);
}

TEST(PolicySpec, ParseRejectsGarbage) {
  EXPECT_THROW(PolicySpec::parse("magic"), std::invalid_argument);
  EXPECT_THROW(PolicySpec::parse("fixed"), std::invalid_argument);
  EXPECT_THROW(PolicySpec::parse("fixed:abc"), std::invalid_argument);
  EXPECT_THROW(PolicySpec::parse("share:1"), std::invalid_argument);
  EXPECT_THROW(PolicySpec::parse("share:2.5"), std::invalid_argument);
  // Non-finite or unrepresentable numbers must fail the parse, not reach
  // a disk's timeline (a NaN timeout never falls due) or trigger
  // an undefined float-to-int cast.
  EXPECT_THROW(PolicySpec::parse("fixed:nan"), std::invalid_argument);
  EXPECT_THROW(PolicySpec::parse("ewma:inf"), std::invalid_argument);
  EXPECT_THROW(PolicySpec::parse("fixed:1e999"), std::invalid_argument);
  EXPECT_THROW(PolicySpec::parse("share:5e9"), std::invalid_argument);
  EXPECT_THROW(PolicySpec::parse("share:nan"), std::invalid_argument);
  // Knobs the policy constructors would reject fail the parse, not the run.
  EXPECT_THROW(PolicySpec::parse("fixed:-5"), std::invalid_argument);
  EXPECT_THROW(PolicySpec::parse("ewma:0"), std::invalid_argument);
  EXPECT_THROW(PolicySpec::parse("ewma:2"), std::invalid_argument);
  EXPECT_THROW(PolicySpec::parse("ewma:-0.5"), std::invalid_argument);
  EXPECT_THROW(PolicySpec::parse("slack:0"), std::invalid_argument);
  EXPECT_THROW(PolicySpec::parse("slack:-1"), std::invalid_argument);
  // The bounds themselves still parse.
  EXPECT_DOUBLE_EQ(PolicySpec::parse("fixed:0").fixed_threshold_s, 0.0);
  EXPECT_DOUBLE_EQ(PolicySpec::parse("ewma:1").ewma_alpha, 1.0);
}

TEST(WorkloadSpec, SpecRoundTripsSyntheticKinds) {
  const std::vector<WorkloadSpec> specs{
      WorkloadSpec::poisson(6.5, 4000.0),
      WorkloadSpec::nhpp({{0.0, 8.0}, {1200.0, 0.05}}, 8000.0),
      WorkloadSpec::nhpp({{0.0, 8.0}, {1200.0, 0.05}, {1800.0, 2.0}}, 8000.0,
                         2000.0),
      WorkloadSpec::mmpp({{8.0, 0.5}, {120.0, 480.0}}, 8000.0)};
  for (const auto& w : specs) {
    SCOPED_TRACE(w.spec());
    const auto parsed = WorkloadSpec::parse(w.spec());
    EXPECT_EQ(parsed.kind, w.kind);
    EXPECT_DOUBLE_EQ(parsed.rate, w.rate);
    EXPECT_DOUBLE_EQ(parsed.horizon_s, w.horizon_s);
    EXPECT_DOUBLE_EQ(parsed.period_s, w.period_s);
    ASSERT_EQ(parsed.segments.size(), w.segments.size());
    for (std::size_t i = 0; i < w.segments.size(); ++i) {
      EXPECT_DOUBLE_EQ(parsed.segments[i].start, w.segments[i].start);
      EXPECT_DOUBLE_EQ(parsed.segments[i].rate, w.segments[i].rate);
    }
    EXPECT_DOUBLE_EQ(parsed.mmpp_params.rate[0], w.mmpp_params.rate[0]);
    EXPECT_DOUBLE_EQ(parsed.mmpp_params.mean_dwell[1],
                     w.mmpp_params.mean_dwell[1]);
    EXPECT_EQ(parsed.spec(), w.spec());
  }
}

TEST(WorkloadSpec, ReplayParsesButNeedsResolution) {
  const auto w = WorkloadSpec::parse("replay");
  EXPECT_EQ(w.kind, WorkloadSpec::Kind::kReplay);
  EXPECT_EQ(w.spec(), "replay");
  EXPECT_THROW(w.measurement_horizon(), std::invalid_argument);
  const auto cat = small_catalog();
  EXPECT_THROW(w.make_stream(cat, 1), std::invalid_argument);
  EXPECT_THROW(w.mean_rate(), std::invalid_argument);
}

TEST(WorkloadSpec, MeanRateSummarizesEveryKind) {
  EXPECT_DOUBLE_EQ(WorkloadSpec::poisson(6.0, 4000.0).mean_rate(), 6.0);
  // NHPP: 8/s for the first quarter, idle after — mean 2/s.
  EXPECT_DOUBLE_EQ(
      WorkloadSpec::nhpp({{0.0, 8.0}, {1000.0, 0.0}}, 4000.0).mean_rate(),
      2.0);
  // Periodic NHPP averages over one period.
  EXPECT_DOUBLE_EQ(
      WorkloadSpec::nhpp({{0.0, 8.0}, {500.0, 0.0}}, 4000.0, 1000.0)
          .mean_rate(),
      4.0);
  // MMPP: stationary mean weighted by dwell times.
  EXPECT_DOUBLE_EQ(
      WorkloadSpec::mmpp({{9.0, 1.0}, {100.0, 300.0}}, 4000.0).mean_rate(),
      3.0);
  const auto cat = small_catalog();
  const workload::Trace trace{cat, {0.0, 10.0, 20.0}, {0, 1, 2}};
  EXPECT_DOUBLE_EQ(WorkloadSpec::replay(trace).mean_rate(), 3.0 / 20.0);
}

TEST(WorkloadSpec, ParseRejectsGarbageAndTraces) {
  EXPECT_THROW(WorkloadSpec::parse("trace"), std::invalid_argument);
  EXPECT_THROW(WorkloadSpec::parse("trace:"), std::invalid_argument);
  // A trace is named by its catalog (catalog=trace:<stem> workload=replay),
  // not by a second workload spelling.
  EXPECT_THROW(WorkloadSpec::parse("trace:some_stem"), std::invalid_argument);
  EXPECT_THROW(WorkloadSpec::parse("poisson(6)"), std::invalid_argument);
  EXPECT_THROW(WorkloadSpec::parse("poisson(6,4000"), std::invalid_argument);
  EXPECT_THROW(WorkloadSpec::parse("nhpp(0-8,100)"), std::invalid_argument);
  EXPECT_THROW(WorkloadSpec::parse("mmpp(1,2,3,4)"), std::invalid_argument);
  EXPECT_THROW(WorkloadSpec::parse("poisson(x,4000)"), std::invalid_argument);
  // A NaN rate would pass PoissonArrivals' rate > 0 check (false for NaN
  // comparisons) and hang the arrival loop forever.
  EXPECT_THROW(WorkloadSpec::parse("poisson(nan,4000)"), std::invalid_argument);
  EXPECT_THROW(WorkloadSpec::parse("mmpp(inf,1,2,3,100)"),
               std::invalid_argument);
  // spec() writes only a positive period, so a negative one could not be
  // echoed back; zero is the documented "no period".
  EXPECT_THROW(WorkloadSpec::parse("nhpp(0:1,100,-5)"), std::invalid_argument);
  EXPECT_EQ(WorkloadSpec::parse("nhpp(0:1,100,0)").spec(), "nhpp(0:1,100)");
}

TEST(RunExperiment, NhppWorkloadEndToEnd) {
  const auto cat = small_catalog();
  ExperimentConfig cfg;
  cfg.catalog = &cat;
  cfg.mapping = {0, 0, 0, 0, 1, 1, 1, 1};
  cfg.num_disks = 2;
  cfg.workload =
      WorkloadSpec::nhpp({{0.0, 2.0}, {150.0, 0.05}}, 300.0);
  cfg.seed = 3;
  const auto r = run_experiment(cfg);
  EXPECT_GT(r.requests, 100u);
  EXPECT_EQ(r.response.count(), r.requests);
  EXPECT_DOUBLE_EQ(r.power.horizon_s, 300.0);
}

TEST(RunExperiment, MmppWorkloadEndToEnd) {
  const auto cat = small_catalog();
  ExperimentConfig cfg;
  cfg.catalog = &cat;
  cfg.mapping = {0, 0, 0, 0, 1, 1, 1, 1};
  cfg.num_disks = 2;
  cfg.workload = WorkloadSpec::mmpp({{3.0, 0.1}, {60.0, 60.0}}, 400.0);
  cfg.policy = PolicySpec::ewma();
  cfg.seed = 5;
  const auto r = run_experiment(cfg);
  EXPECT_GT(r.requests, 50u);
  EXPECT_EQ(r.response.count(), r.requests);
  EXPECT_DOUBLE_EQ(r.power.horizon_s, 400.0);
}

TEST(RunExperiment, PoissonPathBitExactThroughArrivalProcess) {
  // The WorkloadSpec::make_stream plumbing must not disturb the seed
  // path: running the same config twice (it now goes through
  // ArrivalZipfStream + PoissonArrivals) gives identical results, and the
  // request count matches a hand-built ArrivalZipfStream drive.
  const auto cat = small_catalog();
  ExperimentConfig cfg;
  cfg.catalog = &cat;
  cfg.mapping = {0, 1, 0, 1, 0, 1, 0, 1};
  cfg.num_disks = 2;
  cfg.workload = WorkloadSpec::poisson(1.5, 250.0);
  cfg.seed = 9;
  const auto r = run_experiment(cfg);

  workload::ArrivalZipfStream stream{
      cat, std::make_unique<workload::PoissonArrivals>(1.5), 250.0,
      util::Rng{9}};
  std::uint64_t n = 0;
  while (stream.next().has_value()) ++n;
  EXPECT_EQ(r.requests, n);
}

TEST(RunExperiment, DeterministicGivenSeed) {
  const auto cat = small_catalog();
  ExperimentConfig cfg;
  cfg.catalog = &cat;
  cfg.mapping = {0, 1, 0, 1, 0, 1, 0, 1};
  cfg.num_disks = 2;
  cfg.workload = WorkloadSpec::poisson(1.0, 200.0);
  cfg.seed = 11;
  const auto a = run_experiment(cfg);
  const auto b = run_experiment(cfg);
  EXPECT_DOUBLE_EQ(a.power.energy, b.power.energy);
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.response.count(), b.response.count());
  EXPECT_DOUBLE_EQ(a.response.mean(), b.response.mean());
}

TEST(RunExperiment, RejectsNonPositiveHorizon) {
  const auto cat = small_catalog();
  ExperimentConfig cfg;
  cfg.catalog = &cat;
  cfg.mapping = {0, 1, 0, 1, 0, 1, 0, 1};
  cfg.num_disks = 2;
  cfg.workload = WorkloadSpec::poisson(1.0, 0.0);
  try {
    (void)run_experiment(cfg);
    FAIL() << "a zero measurement horizon must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find("measurement horizon"),
              std::string::npos)
        << e.what();
  }
}

} // namespace
} // namespace spindown::sys
