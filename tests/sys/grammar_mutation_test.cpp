// grammar_mutation_test.cpp — every token of the scenario grammar changes
// the result, or it is not a spelling of its own.
//
// From one small base scenario, each one-token mutation runs next to the
// scenario it mutates: each placement, device, policy, scheduler, cache,
// catalog and workload kind, each orch= mechanism and knob, and replicas=.
// A mutation whose canonical spec() differs from its starting point must
// also differ in physical digest — a token that renames a scenario without
// changing its result is a dead or duplicate spelling, to be deleted or
// canonicalized.  A mutation that keeps the canonical name (an accepted
// older spelling, a default written out) must keep the digest.  label=,
// obs= and shards= are the inverse check: they never change the result.
//
// tools/lint/determinism_lint.py (rule spec-coverage) requires every key
// the scenario parser accepts, and every kind name a spec parse() accepts,
// to appear in this file's strings.
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "support/physical_digest.h"
#include "sys/scenario.h"
#include "workload/nersc.h"

namespace spindown::sys {
namespace {

using test_support::physical_digest;

const std::string kBase =
    "catalog=table1(4000) load=0.7 workload=poisson(2,2000) seed=3";
// A replayed NERSC-style day: batched requests of similar-size files, the
// workload where the batch scheduler's knobs matter.
const std::string kNersc = "catalog=nersc(4000,8000,1,86400) workload=replay";
// MAID needs an explicit farm (cache + data disks).
const std::string kMaid = "disks=40 placement=maid:4";
// Replica copies are read only by redirection, so the two come together.
const std::string kRedirect = "replicas=2 orch=redirect";

struct Mutation {
  std::string from;  ///< tokens appended to kBase: the starting scenario
  std::string token; ///< the mutation, appended after `from`
};

std::vector<Mutation> mutations(const std::string& trace_stem) {
  return {
      // catalog: every kind, size and shape; the seed only where it
      // shuffles (the independent size correlation).
      {"", "catalog=table1(3000)"},
      {"", "catalog=table1(4000,2)"},            // older spelling
      {"", "catalog=synth(4000,0,20g,inverse)"}, // Table 1 spelled out
      {"", "catalog=synth(4000,0.5,20g,inverse)"},
      {"", "catalog=synth(4000,0,10g,inverse)"},
      {"", "catalog=synth(4000,0,1g,direct)"},
      {"", "catalog=synth(4000,0,20g,independent,1)"},
      {"catalog=synth(4000,0,20g,independent,1)",
       "catalog=synth(4000,0,20g,independent,2)"},
      {"", kNersc},
      {kNersc, "catalog=nersc(4000,8000,2,86400)"},
      {kNersc, "catalog=nersc(4000,9000,1,86400)"},
      {kNersc, "catalog=nersc(3000,8000,1,86400)"},
      {kNersc, "catalog=nersc(4000,8000,1)"},
      {kNersc, "catalog=nersc(4000,8000,1,86400,0.9)"},
      {kNersc, "catalog=nersc(4000,8000,1,86400,0.35,2)"},
      {kNersc, "catalog=nersc(4000,8000,1,86400,0.35,4,20)"},
      {"", "catalog=trace:" + trace_stem + " workload=replay"},
      // placement, farm and load model
      {"", "placement=pack"},
      {"", "placement=grouped"},
      {"", "placement=grouped:2"},
      {"", "placement=grouped:1"}, // Pack_Disks_1 is Pack_Disks
      {"", "placement=random"},
      {"", "placement=sea"},
      {"", "placement=sea:0.5"},
      {"", "placement=seg"},
      {"", "placement=seg:3"},
      {"", "placement=seg:1"}, // one size class is Pack_Disks
      {"", "placement=ffd"},
      {"disks=40", "placement=maid:4"},
      {kMaid, "placement=maid:2"},
      {kMaid, "placement=maid"},
      {"", "disks=40"},
      {"", "load=0.5"},
      {"", "device=st3500630as"}, // the default device written out
      {"", "device=laptop_2_5in"},
      {"", kRedirect},
      {kRedirect, "replicas=3"},
      // spin-down policy
      {"", "policy=break-even"},
      {"", "policy=never"},
      {"", "policy=randomized"},
      {"", "policy=fixed:60"},
      {"policy=fixed:60", "policy=fixed:30"},
      {"", "policy=ewma"},
      {"policy=ewma", "policy=ewma:0.5"},
      {"", "policy=share"},
      {"policy=share", "policy=share:8"},
      {"", "policy=slack"},
      {"policy=slack", "policy=slack:30"},
      // scheduler
      {"", "sched=fcfs"},
      {"", "sched=sstf"},
      {"", "sched=scan"},
      {"", "sched=clook"},
      {"", "sched=batch"},
      {"sched=clook", "sched=batch1"}, // a batch of one is C-LOOK
      {"sched=batch", "sched=batch4"},
      {kNersc + " sched=batch", "sched=batch16x4096"},
      {kNersc + " sched=clook", "sched=batch1x4096"},
      // front cache
      {"", "cache=none"},
      {"", "cache=lru"},
      {"", "cache=fifo"},
      {"", "cache=lfu"},
      {"cache=lru", "cache=lru:32g"},
      // workload and run seed
      {"", "workload=poisson(3,2000)"},
      {"", "workload=poisson(2,1500)"},
      {"", "workload=nhpp(0:3;1000:1,2000)"},
      {"workload=nhpp(0:3;1000:1,2000)", "workload=nhpp(0:3;1000:1,2000,1500)"},
      {"", "workload=mmpp(3,1,100,200,2000)"},
      {"workload=mmpp(3,1,100,200,2000)", "workload=mmpp(3,0.5,100,200,2000)"},
      {"", "seed=4"},
      // orchestration
      {"", "orch=off"},
      {"", "orch=offload"},
      {"orch=offload", "orch=offload:2"},
      {"orch=offload", "orch=offload:1:30"},
      {"orch=offload", "orch=offload+writes:0.5"},
      {kRedirect, "orch=redirect+offload"},
  };
}

std::string join(const std::string& a, const std::string& b) {
  return b.empty() ? a : a + " " + b;
}

/// A small saved trace for the trace:<stem> catalog kind, removed again
/// when the test ends.
class SavedTrace {
public:
  SavedTrace() {
    workload::NerscSpec n;
    n.n_files = 300;
    n.n_requests = 600;
    n.duration_s = 20'000.0;
    workload::synthesize_nersc(n).save(stem_);
  }
  ~SavedTrace() {
    std::filesystem::remove(stem_ + ".catalog.csv");
    std::filesystem::remove(stem_ + ".trace.csv");
  }
  const std::string& stem() const { return stem_; }

private:
  std::string stem_ = (std::filesystem::temp_directory_path() /
                       "spindown_grammar_mutation_trace")
                          .string();
};

TEST(GrammarMutation, EveryCanonicalTokenChangesThePhysicalResult) {
  const SavedTrace trace;
  const auto cases = mutations(trace.stem());
  // Run every distinct scenario text once, in parallel.
  std::map<std::string, std::string> digest;
  for (const auto& m : cases) {
    digest[join(kBase, m.from)];
    digest[join(join(kBase, m.from), m.token)];
  }
  std::vector<ScenarioSpec> specs;
  for (const auto& entry : digest) {
    specs.push_back(ScenarioSpec::parse(entry.first));
  }
  const auto results = run_scenarios(specs);
  std::size_t i = 0;
  for (auto& entry : digest) entry.second = physical_digest(results[i++]);

  for (const auto& m : cases) {
    const auto from_text = join(kBase, m.from);
    const auto to_text = join(from_text, m.token);
    SCOPED_TRACE(to_text);
    if (ScenarioSpec::parse(from_text) != ScenarioSpec::parse(to_text)) {
      EXPECT_NE(digest[from_text], digest[to_text])
          << "'" << m.token << "' renames the scenario but changes nothing";
    } else {
      EXPECT_EQ(digest[from_text], digest[to_text])
          << "'" << m.token << "' keeps the name but changes the result";
    }
  }
}

TEST(GrammarMutation, LabelObsAndShardsNeverChangeTheResult) {
  const auto base = ScenarioSpec::parse(kBase);
  const auto expected = physical_digest(run_scenario(base));
  for (const std::string token :
       {"label=renamed", "shards=2", "shards=auto", "obs=off", "obs=all",
        "obs=spans+power+policy+metrics:30+profile"}) {
    SCOPED_TRACE(token);
    const auto spec = ScenarioSpec::parse(join(kBase, token));
    obs::RunTrace trace;
    EXPECT_EQ(physical_digest(run_scenario(spec, &trace)), expected);
    EXPECT_EQ(trace.events.empty(), !spec.obs.enabled()); // really traced
  }
}

TEST(GrammarMutation, ReplicationHalvesAreRejectedRatherThanRunAsNoOps) {
  for (const std::string half : {"replicas=2", "orch=redirect",
                                 "replicas=2 orch=offload",
                                 "orch=redirect+offload"}) {
    SCOPED_TRACE(half);
    EXPECT_THROW(resolve_scenario(ScenarioSpec::parse(join(kBase, half))),
                 std::invalid_argument);
  }
}

} // namespace
} // namespace spindown::sys
