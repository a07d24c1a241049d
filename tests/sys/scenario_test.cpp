#include "sys/scenario.h"

#include <gtest/gtest.h>

#include "core/normalize.h"
#include "core/pack_disks.h"
#include "core/random_alloc.h"
#include "util/units.h"

namespace spindown::sys {
namespace {

TEST(CatalogSpec, Table1RoundTrips) {
  const auto c = CatalogSpec::table1(600);
  EXPECT_EQ(c.spec(), "table1(600)");
  const auto parsed = CatalogSpec::parse(c.spec());
  EXPECT_EQ(parsed.kind, CatalogSpec::Kind::kSynthetic);
  EXPECT_EQ(parsed.synth.n_files, 600u);
  EXPECT_EQ(parsed.spec(), c.spec());
  // The older seeded spelling still parses, to the same canonical name:
  // Table 1's inverse correlation draws no random numbers.
  EXPECT_EQ(CatalogSpec::parse("table1(600,7)").spec(), "table1(600)");
}

TEST(CatalogSpec, SynthRoundTripsNonPaperShapes) {
  workload::SyntheticSpec s = workload::SyntheticSpec::paper_table1();
  s.n_files = 1000;
  s.zipf_exponent = 0.75;
  s.max_size = util::gb(4.0);
  s.correlation = workload::SizeCorrelation::kIndependent;
  const auto c = CatalogSpec::synthetic(s, 3);
  EXPECT_EQ(c.spec(), "synth(1000,0.75,4g,independent,3)");
  const auto parsed = CatalogSpec::parse(c.spec());
  EXPECT_EQ(parsed.synth.n_files, 1000u);
  EXPECT_DOUBLE_EQ(parsed.synth.zipf_exponent, 0.75);
  EXPECT_EQ(parsed.synth.max_size, util::gb(4.0));
  EXPECT_EQ(parsed.synth.correlation,
            workload::SizeCorrelation::kIndependent);
  EXPECT_EQ(parsed.seed, 3u);
  EXPECT_EQ(parsed.spec(), c.spec());

  // Only the independent correlation shuffles, so only it names a seed.
  s.correlation = workload::SizeCorrelation::kDirect;
  EXPECT_EQ(CatalogSpec::synthetic(s, 3).spec(), "synth(1000,0.75,4g,direct)");
  EXPECT_EQ(CatalogSpec::parse("synth(1000,0.75,4g,direct,9)").spec(),
            "synth(1000,0.75,4g,direct)");
}

TEST(CatalogSpec, NerscRoundTripsWithTrailingOptionals) {
  workload::NerscSpec n;
  n.n_files = 2000;
  n.n_requests = 3000;
  n.seed = 11;
  const auto minimal = CatalogSpec::nersc_synth(n);
  EXPECT_EQ(minimal.spec(), "nersc(2000,3000,11)");
  EXPECT_EQ(CatalogSpec::parse(minimal.spec()).spec(), minimal.spec());

  n.duration_s = 86400.0;
  n.batch_fraction = 0.3;
  n.batch_min = 6;
  const auto custom = CatalogSpec::nersc_synth(n);
  EXPECT_EQ(custom.spec(), "nersc(2000,3000,11,86400,0.3,6)");
  const auto parsed = CatalogSpec::parse(custom.spec());
  EXPECT_DOUBLE_EQ(parsed.nersc.duration_s, 86400.0);
  EXPECT_DOUBLE_EQ(parsed.nersc.batch_fraction, 0.3);
  EXPECT_EQ(parsed.nersc.batch_min, 6u);
  EXPECT_EQ(parsed.nersc.batch_max, workload::NerscSpec{}.batch_max);
  EXPECT_EQ(parsed.spec(), custom.spec());
}

TEST(CatalogSpec, ParseRejectsGarbage) {
  EXPECT_THROW(CatalogSpec::parse("table1()"), std::invalid_argument);
  EXPECT_THROW(CatalogSpec::parse("table1(600,1,2)"), std::invalid_argument);
  EXPECT_THROW(CatalogSpec::parse("table1(x,1)"), std::invalid_argument);
  EXPECT_THROW(CatalogSpec::parse("table1(600,x)"), std::invalid_argument);
  EXPECT_THROW(CatalogSpec::parse("synth(10,0,20g,weird,1)"),
               std::invalid_argument);
  EXPECT_THROW(CatalogSpec::parse("nersc(10)"), std::invalid_argument);
  EXPECT_THROW(CatalogSpec::parse("trace:"), std::invalid_argument);
  EXPECT_THROW(CatalogSpec::parse("magic"), std::invalid_argument);
}

TEST(PlacementSpec, RoundTripsEveryKind) {
  const std::vector<std::string> keys{"pack",  "grouped:4", "grouped:8",
                                      "random", "maid:4",   "sea:0.8",
                                      "seg:2",  "ffd"};
  for (const auto& key : keys) {
    SCOPED_TRACE(key);
    EXPECT_EQ(PlacementSpec::parse(key).spec(), key);
  }
  // Pack_Disks_1 and one size class are Pack_Disks by construction.
  EXPECT_EQ(PlacementSpec::parse("grouped:1").spec(), "pack");
  EXPECT_EQ(PlacementSpec::parse("seg:1").spec(), "pack");
  // Bare names take the documented defaults.
  EXPECT_EQ(PlacementSpec::parse("grouped").group_size, 4u);
  EXPECT_EQ(PlacementSpec::parse("maid").cache_disks, 4u);
  EXPECT_DOUBLE_EQ(PlacementSpec::parse("sea").hot_load_share, 0.8);
}

TEST(PlacementSpec, ParseRejectsGarbage) {
  EXPECT_THROW(PlacementSpec::parse("stack"), std::invalid_argument);
  EXPECT_THROW(PlacementSpec::parse("grouped:0"), std::invalid_argument);
  EXPECT_THROW(PlacementSpec::parse("grouped:x"), std::invalid_argument);
  EXPECT_THROW(PlacementSpec::parse("sea:0"), std::invalid_argument);
  EXPECT_THROW(PlacementSpec::parse("sea:1.5"), std::invalid_argument);
  // Argument-less kinds reject stray arguments ("pack:4" is almost
  // certainly a mistyped "grouped:4", not plain pack).
  EXPECT_THROW(PlacementSpec::parse("pack:4"), std::invalid_argument);
  EXPECT_THROW(PlacementSpec::parse("random:7"), std::invalid_argument);
  EXPECT_THROW(PlacementSpec::parse("ffd:3"), std::invalid_argument);
}

TEST(ScenarioSpec, DefaultsRoundTrip) {
  const ScenarioSpec s;
  const auto parsed = ScenarioSpec::parse(s.spec());
  EXPECT_EQ(parsed, s);
  EXPECT_EQ(parsed.spec(), s.spec());
}

TEST(ScenarioSpec, FullStringParsesAndCanonicalizes) {
  const auto s = ScenarioSpec::parse(
      "catalog=table1(600) placement=grouped:4 load=0.9 disks=40 "
      "policy=fixed:10 sched=batch8 cache=lru:30g "
      "workload=poisson(1.2,800) seed=42 label=golden");
  EXPECT_EQ(s.catalog.synth.n_files, 600u);
  EXPECT_EQ(s.placement.kind, PlacementSpec::Kind::kGrouped);
  EXPECT_DOUBLE_EQ(s.load_fraction, 0.9);
  EXPECT_EQ(s.disks, 40u);
  EXPECT_EQ(s.policy.kind, PolicySpec::Kind::kFixed);
  EXPECT_EQ(s.scheduler.kind, SchedulerSpec::Kind::kBatch);
  EXPECT_EQ(s.scheduler.max_batch, 8u);
  EXPECT_EQ(s.cache.kind, CacheSpec::Kind::kLru);
  EXPECT_EQ(s.cache.capacity, util::gb(30.0));
  EXPECT_EQ(s.workload.kind, WorkloadSpec::Kind::kPoisson);
  EXPECT_EQ(s.seed, 42u);
  EXPECT_EQ(s.label, "golden");
  // Canonical emission is order-normalized and fully explicit.
  EXPECT_EQ(s.spec(),
            "label=golden catalog=table1(600) placement=grouped:4 "
            "load=0.9 disks=40 policy=fixed:10 sched=batch8 cache=lru:30g "
            "workload=poisson(1.2,800) seed=42");
  EXPECT_EQ(ScenarioSpec::parse(s.spec()), s);
}

TEST(ScenarioSpec, ParseRejectsBadInput) {
  EXPECT_THROW(ScenarioSpec::parse(""), std::invalid_argument);
  EXPECT_THROW(ScenarioSpec::parse("catalog"), std::invalid_argument);
  EXPECT_THROW(ScenarioSpec::parse("warp=9"), std::invalid_argument);
  // One name per key: `sched` has no `scheduler` alias.
  EXPECT_THROW(ScenarioSpec::parse("scheduler=sstf"), std::invalid_argument);
  EXPECT_THROW(ScenarioSpec::parse("load=0"), std::invalid_argument);
  EXPECT_THROW(ScenarioSpec::parse("load=1.5"), std::invalid_argument);
  EXPECT_THROW(ScenarioSpec::parse("disks=many"), std::invalid_argument);
  // A farm above the limit throws instead of clamping to another scenario.
  EXPECT_EQ(ScenarioSpec::parse("disks=1000000").disks, 1'000'000u);
  EXPECT_THROW(ScenarioSpec::parse("disks=1000001"), std::invalid_argument);
  EXPECT_THROW(ScenarioSpec::parse("disks=4294967295"),
               std::invalid_argument);
  // Overflowing counts stay inside the documented std::invalid_argument
  // contract instead of leaking std::out_of_range from std::stoull.
  EXPECT_THROW(ScenarioSpec::parse("seed=99999999999999999999999"),
               std::invalid_argument);
  EXPECT_THROW(ScenarioSpec::parse("sched=batch99999999999999999999999"),
               std::invalid_argument);
  EXPECT_THROW(ScenarioSpec::parse("catalog=table1(600,-1)"),
               std::invalid_argument);
}

TEST(ScenarioSpec, ShardsKeyRoundTrips) {
  // Default (1) is omitted from the canonical string; "auto" renders the
  // stored 0; explicit counts round-trip.  Out-of-range counts are grammar
  // errors, not silent clamps.
  const ScenarioSpec base;
  EXPECT_EQ(base.shards, 1u);
  EXPECT_EQ(base.spec().find("shards"), std::string::npos);
  const auto autos = base.with("shards", "auto");
  EXPECT_EQ(autos.shards, 0u);
  EXPECT_NE(autos.spec().find("shards=auto"), std::string::npos);
  EXPECT_EQ(ScenarioSpec::parse(autos.spec()), autos);
  const auto eight = base.with("shards", "8");
  EXPECT_EQ(eight.shards, 8u);
  EXPECT_EQ(ScenarioSpec::parse(eight.spec()), eight);
  EXPECT_EQ(eight.with("shards", "1").spec(), base.spec());
  EXPECT_THROW(ScenarioSpec::parse("shards=0"), std::invalid_argument);
  EXPECT_THROW(ScenarioSpec::parse("shards=257"), std::invalid_argument);
  EXPECT_THROW(ScenarioSpec::parse("shards=many"), std::invalid_argument);
}

TEST(ScenarioSpec, WithReassignsOneKey) {
  const ScenarioSpec base;
  const auto swept = base.with("policy", "fixed:60");
  EXPECT_EQ(swept.policy.kind, PolicySpec::Kind::kFixed);
  EXPECT_DOUBLE_EQ(swept.policy.fixed_threshold_s, 60.0);
  EXPECT_EQ(base.policy.kind, PolicySpec::Kind::kBreakEven); // base untouched
  EXPECT_THROW(base.with("nope", "1"), std::invalid_argument);
}

// --- resolution -----------------------------------------------------------

ScenarioSpec small_packed_scenario() {
  ScenarioSpec s;
  s.catalog = CatalogSpec::table1(300);
  s.placement = PlacementSpec::pack();
  s.load_fraction = 0.8;
  s.workload = WorkloadSpec::poisson(1.5, 400.0);
  s.seed = 9;
  return s;
}

TEST(ScenarioResolve, PackMatchesHandBuiltConfig) {
  const auto s = small_packed_scenario();
  const auto resolved = resolve_scenario(s);

  // Hand-built equivalent, the way the benches did it before ScenarioSpec.
  workload::SyntheticSpec spec = workload::SyntheticSpec::paper_table1();
  spec.n_files = 300;
  util::Rng rng{5};
  const auto cat = workload::generate_catalog(spec, rng);
  core::LoadModel model;
  model.rate = 1.5;
  model.load_fraction = 0.8;
  core::PackDisks pack;
  const auto a = pack.allocate(core::normalize(cat, model));

  EXPECT_EQ(resolved.config.mapping, a.disk_of);
  EXPECT_EQ(resolved.config.num_disks, a.disk_count);
  EXPECT_EQ(resolved.catalog->size(), cat.size());
  EXPECT_EQ(resolved.config.catalog, resolved.catalog.get());
  EXPECT_EQ(resolved.trace, nullptr);
}

TEST(ScenarioResolve, DisksFloorGrowsTheFarm) {
  auto s = small_packed_scenario();
  const auto tight = resolve_scenario(s);
  s.disks = tight.config.num_disks + 20;
  const auto grown = resolve_scenario(s);
  EXPECT_EQ(grown.config.num_disks, tight.config.num_disks + 20);
  EXPECT_EQ(grown.config.mapping, tight.config.mapping);
}

TEST(ScenarioResolve, RandomWithPinnedFarmMatchesRandomAllocator) {
  auto s = small_packed_scenario();
  s.placement = PlacementSpec::random();
  s.disks = 25;
  const auto resolved = resolve_scenario(s);

  workload::SyntheticSpec spec = workload::SyntheticSpec::paper_table1();
  spec.n_files = 300;
  util::Rng rng{5};
  const auto cat = workload::generate_catalog(spec, rng);
  core::LoadModel model;
  model.rate = 1.5;
  model.load_fraction = 1.0; // random normalizes leniently
  core::RandomAllocator rnd{25, 9};
  const auto a = rnd.allocate(core::normalize(cat, model));
  EXPECT_EQ(resolved.config.mapping, a.disk_of);
  EXPECT_EQ(resolved.config.num_disks, 25u);
}

TEST(ScenarioResolve, RandomWithoutFarmUsesPackDisksCount) {
  auto s = small_packed_scenario();
  const auto packed = resolve_scenario(s);
  s.placement = PlacementSpec::random();
  s.disks = 0;
  const auto resolved = resolve_scenario(s);
  EXPECT_EQ(resolved.config.num_disks, packed.config.num_disks);
}

TEST(ScenarioResolve, NerscCatalogCarriesReplayableTrace) {
  ScenarioSpec s;
  workload::NerscSpec n;
  n.n_files = 400;
  n.n_requests = 700;
  n.duration_s = 4.0 * util::kDay;
  n.seed = 2;
  s.catalog = CatalogSpec::nersc_synth(n);
  s.workload = WorkloadSpec::replay_catalog();
  const auto resolved = resolve_scenario(s);
  ASSERT_NE(resolved.trace, nullptr);
  EXPECT_EQ(resolved.trace->size(), 700u);
  EXPECT_EQ(resolved.config.workload.kind, WorkloadSpec::Kind::kReplay);
  EXPECT_EQ(resolved.config.workload.trace, resolved.trace.get());
  EXPECT_EQ(resolved.config.catalog, &resolved.trace->catalog());
}

TEST(ScenarioResolve, ReplayWithoutTraceCatalogThrows) {
  auto s = small_packed_scenario();
  s.workload = WorkloadSpec::replay_catalog();
  EXPECT_THROW(resolve_scenario(s), std::invalid_argument);
}

TEST(ScenarioResolve, ReplicasAndRedirectOnlyTogether) {
  // Only redirection reads the copies, so either half alone would change
  // nothing; resolution (not parse, so --sweep can pass through) refuses.
  const auto base = small_packed_scenario();
  EXPECT_THROW(resolve_scenario(base.with("replicas", "2")),
               std::invalid_argument);
  EXPECT_THROW(resolve_scenario(base.with("orch", "redirect")),
               std::invalid_argument);
  EXPECT_THROW(
      resolve_scenario(base.with("replicas", "2").with("orch", "offload")),
      std::invalid_argument);
  const auto both = base.with("replicas", "2").with("orch", "redirect");
  EXPECT_EQ(resolve_scenario(both).config.replicas, 2u);
}

TEST(ScenarioResolve, UnboundedMetricsTickCountIsRejectedBeforeTheRun) {
  // metrics:1e-300 parses (finite, > 0), but over a 400 s horizon it would
  // sample ~4e302 ticks, each two gauges per disk: resolution refuses it,
  // naming the interval, the horizon and the tick count, without running.
  const auto base = small_packed_scenario();
  try {
    (void)resolve_scenario(base.with("obs", "metrics:1e-300"));
    FAIL() << "metrics:1e-300 resolved";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("obs=metrics:1e-300 over a 400 s horizon samples "
                        "3.9999999999999995e+302 ticks, more than 1000000"),
              std::string::npos)
        << what;
  }
  // One tick per millisecond of a 400 s horizon is within the cap.
  EXPECT_NO_THROW((void)resolve_scenario(base.with("obs", "metrics:0.001")));
  EXPECT_THROW((void)resolve_scenario(base.with("obs", "metrics:0.0001")),
               std::invalid_argument);
}

TEST(ScenarioResolve, MaidNeedsAnExplicitFarmAndPinsCacheDisks) {
  auto s = small_packed_scenario();
  s.placement = PlacementSpec::maid(2);
  EXPECT_THROW(resolve_scenario(s), std::invalid_argument); // disks = 0
  s.disks = 12;
  const auto resolved = resolve_scenario(s);
  ASSERT_EQ(resolved.config.policy_overrides.size(), 2u);
  EXPECT_EQ(resolved.config.policy_overrides[0].first, 0u);
  EXPECT_EQ(resolved.config.policy_overrides[0].second.kind,
            PolicySpec::Kind::kNever);
}

TEST(ScenarioResolve, InjectedRawTraceIsRejected) {
  // A replay() of an in-memory trace has no name; resolution must refuse
  // rather than silently replaying against an unrelated catalog.
  std::vector<workload::FileInfo> files(2);
  files[0] = {0, util::mb(10.0), 0.5};
  files[1] = {1, util::mb(10.0), 0.5};
  const workload::Trace trace{workload::FileCatalog{files}, {1.0}, {0}};
  auto s = small_packed_scenario();
  s.workload = WorkloadSpec::replay(trace);
  EXPECT_THROW(resolve_scenario(s), std::invalid_argument);
}

TEST(ScenarioCacheTest, MemoizesCatalogAndMappingAcrossASweep) {
  ScenarioCache cache;
  const auto base = small_packed_scenario();
  const auto a = cache.resolve(base);
  const auto b = cache.resolve(base.with("policy", "fixed:60"));
  const auto c = cache.resolve(base.with("seed", "77"));
  // One catalog object serves the whole grid...
  EXPECT_EQ(a.catalog.get(), b.catalog.get());
  EXPECT_EQ(a.catalog.get(), c.catalog.get());
  // ...and the mapping is identical (seed does not re-pack a deterministic
  // allocator).
  EXPECT_EQ(a.config.mapping, b.config.mapping);
  EXPECT_EQ(a.config.mapping, c.config.mapping);
  // A different load really does re-pack (a laxer constraint packs at
  // least as tight).
  const auto d = cache.resolve(base.with("load", "0.95"));
  EXPECT_LE(d.config.num_disks, a.config.num_disks);
}

TEST(ScenarioCacheTest, DeviceKeySelectsParamsAndItsOwnMapping) {
  // The device is part of the scenario's name and of the mapping memo key:
  // the slower laptop drive must not reuse the desktop drive's packing.
  ScenarioCache cache;
  // A rate the laptop drive can serve: its hottest file must fit one disk.
  const auto base = small_packed_scenario().with("workload", "poisson(1,400)");
  const auto laptop = base.with("device", "laptop_2_5in");
  EXPECT_NE(laptop, base);
  EXPECT_NE(laptop.spec().find(" device=laptop_2_5in "), std::string::npos);
  EXPECT_EQ(ScenarioSpec::parse(laptop.spec()), laptop);
  // The paper's drive is the default, so naming it changes nothing.
  EXPECT_EQ(base.with("device", "st3500630as").spec(), base.spec());
  EXPECT_THROW(base.with("device", "floppy"), std::invalid_argument);

  const auto desktop_run = cache.resolve(base);
  const auto laptop_run = cache.resolve(laptop);
  EXPECT_EQ(desktop_run.config.params.model,
            disk::DiskParams::st3500630as().model);
  EXPECT_EQ(laptop_run.config.params.model,
            disk::DiskParams::laptop_2_5in().model);
  EXPECT_EQ(laptop_run.catalog.get(), desktop_run.catalog.get());
  EXPECT_GT(laptop_run.config.num_disks, desktop_run.config.num_disks);
  EXPECT_NE(laptop_run.config.mapping, desktop_run.config.mapping);
}

TEST(ScenarioResolve, InputsOutsideTheGrammarAreRejectedNamingTheField) {
  // A resolved scenario is exactly its string: an input spec() cannot
  // print is refused, not silently dropped from the name.
  const auto expect_rejected = [](const ScenarioSpec& s,
                                  const std::string& field) {
    SCOPED_TRACE(field);
    try {
      (void)resolve_scenario(s);
      ADD_FAILURE() << "resolved";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string{e.what()}.find(field), std::string::npos)
          << e.what();
    }
  };
  workload::NerscSpec n;
  n.n_files = 300;
  n.n_requests = 500;
  n.duration_s = 2.0 * util::kDay;
  ScenarioSpec flat;
  flat.catalog = CatalogSpec::nersc_synth(n);
  flat.workload = WorkloadSpec::replay_catalog();
  flat.catalog.nersc.diurnal = false;
  expect_rejected(flat, "catalog.nersc");

  std::vector<workload::FileInfo> files(2);
  files[0] = {0, util::mb(10.0), 0.5};
  files[1] = {1, util::mb(10.0), 0.5};
  const workload::Trace trace{workload::FileCatalog{files}, {1.0}, {0}};
  auto injected = small_packed_scenario();
  injected.workload = WorkloadSpec::replay(trace);
  expect_rejected(injected, "workload.trace");
}

TEST(ScenarioRun, SweepMatchesIndividualRuns) {
  const auto base = small_packed_scenario();
  const std::vector<ScenarioSpec> specs{
      base, base.with("policy", "fixed:10"), base.with("cache", "lru:5g")};
  const auto swept = run_scenarios(specs, 2);
  ASSERT_EQ(swept.size(), 3u);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    SCOPED_TRACE(i);
    const auto solo = run_scenario(specs[i]);
    EXPECT_EQ(swept[i].requests, solo.requests);
    EXPECT_DOUBLE_EQ(swept[i].power.energy, solo.power.energy);
    EXPECT_DOUBLE_EQ(swept[i].response.mean(), solo.response.mean());
  }
}

TEST(ScenarioJson, EmitsOneParseableObject) {
  const auto result = run_scenario(small_packed_scenario());
  const auto json = to_json(small_packed_scenario(), result);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"scenario\": \"catalog=table1(300)"),
            std::string::npos);
  EXPECT_NE(json.find("\"energy_j\": "), std::string::npos);
  EXPECT_NE(json.find("\"resp_p99_s\": "), std::string::npos);
  // The one nested object is the idle-period histogram summary; braces
  // balance — a cheap well-formedness check.
  const auto nested = json.find('{', 1);
  ASSERT_NE(nested, std::string::npos);
  EXPECT_LT(json.find("\"idle_periods\": ", 1), nested);
  EXPECT_NE(json.find("\"p99_s\": ", nested), std::string::npos);
  std::size_t depth = 0;
  for (const char c : json) {
    if (c == '{') ++depth;
    if (c == '}') --depth;
  }
  EXPECT_EQ(depth, 0u);
}

} // namespace
} // namespace spindown::sys
