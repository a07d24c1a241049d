// spec_byte_fuzz_test.cpp — crash-freedom of ScenarioSpec::parse on hostile
// bytes.
//
// A seeded byte-mutation loop (no fuzzing library): each iteration takes one
// of a few valid scenario strings that together touch every key, applies one
// to three random replace / insert / delete edits with any byte
// 0x00-0xFF, and parses the result.  The contract under test:
//   * std::invalid_argument is the only exception that may escape parse;
//   * every input that parses re-renders identically after a second trip,
//     parse(spec()).spec() == spec().
// spec_roundtrip_fuzz_test draws only valid values; this one draws garbage.
#include <gtest/gtest.h>

#include <exception>
#include <stdexcept>
#include <string>
#include <string_view>

#include "support/byte_mutation.h"
#include "sys/scenario.h"
#include "util/rng.h"

namespace spindown::sys {
namespace {

constexpr const char* kSeeds[] = {
    "catalog=table1(600) placement=grouped:4 load=0.9 disks=40 "
    "policy=fixed:10 sched=batch8 cache=lru:30g workload=poisson(1.2,800) "
    "seed=42",
    "catalog=nersc(10,20,1,1000,0.5,2,9) placement=maid:4 disks=12 "
    "policy=ewma:0.25 workload=replay shards=auto obs=spans+metrics:30",
    "catalog=synth(800,0,16m,independent,3) placement=sea:0.8 replicas=2 "
    "policy=share:12 orch=redirect+offload:2:300+writes:0.5 "
    "workload=nhpp(0:8;1200:0.05,8000,2000)",
    "label=x catalog=trace:runs/a placement=seg:3 policy=slack:60 "
    "sched=clook cache=fifo:4g workload=mmpp(8,0.5,120,480,8000) seed=7 "
    "shards=4 obs=all",
};

/// Bytes the grammar gives meaning to.
constexpr std::string_view kGrammarBytes = "=:,;()+-.e0123456789 gkmx";

TEST(SpecByteFuzz, OnlyInvalidArgumentEscapesAndParsedInputsRoundTrip) {
  for (const char* seed : kSeeds) {
    const auto spec = ScenarioSpec::parse(seed).spec();
    ASSERT_EQ(ScenarioSpec::parse(spec).spec(), spec) << seed;
  }
  util::Rng rng{20260531};
  std::size_t parsed = 0;
  constexpr int kIterations = 20'000;
  for (int i = 0; i < kIterations; ++i) {
    const std::string input = test_support::mutate_bytes(
        kSeeds[rng.uniform_int(0, std::size(kSeeds) - 1)], kGrammarBytes, rng);
    std::string rendered;
    try {
      rendered = ScenarioSpec::parse(input).spec();
    } catch (const std::invalid_argument&) {
      continue;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "parse leaked " << e.what() << " on '" << input << "'";
      continue;
    }
    ++parsed;
    try {
      EXPECT_EQ(ScenarioSpec::parse(rendered).spec(), rendered)
          << "input '" << input << "'";
    } catch (const std::exception& e) {
      ADD_FAILURE() << "re-parse of '" << rendered << "' threw " << e.what()
                    << " (input '" << input << "')";
    }
  }
  // Both branches must be exercised for the loop to mean anything.
  EXPECT_GT(parsed, kIterations / 100);
  EXPECT_LT(parsed, kIterations);
}

} // namespace
} // namespace spindown::sys
