// policy_matrix_test.cpp — every I/O scheduler × every spin-down policy on
// one small queueing, spin-down-heavy farm, pinned.
//
// The reference oracle (tests/disk/reference_oracle_test.cpp) checks one
// FCFS disk; the golden guards pin a handful of scenarios.  This grid pins
// each scheduler/policy pair at two shard counts: the physical digest, the
// engine's event count and the canonical trace (spans, power, policy and
// metric gauges).  The pins were captured once from a known-good engine, so
// a change to the disk's state machine, its tie rules or its event
// accounting moves one.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "obs/trace.h"
#include "support/physical_digest.h"
#include "sys/scenario.h"

namespace spindown::sys {
namespace {

using test_support::physical_digest;
using test_support::trace_digest;

/// Table 1's catalog on a packed farm at 90% load: requests queue behind
/// one another, and the idle gaps are long enough for every spin-down
/// policy to act.
constexpr const char* kBase =
    "catalog=table1(600) placement=pack load=0.9 workload=poisson(1.2,1000) "
    "seed=5 obs=spans+power+policy+metrics:7";

struct Pin {
  const char* sched;
  const char* policy;
  const char* result;
  std::uint64_t events;
  const char* trace;
};

// clang-format off
constexpr Pin kPins[] = {
    {"fcfs", "never", "d19d04a7fbadceb3", 1219, "c4098590f7e02588"},
    {"fcfs", "fixed:0", "8a389be4c7a7ef35", 1449, "008786fed7946663"},
    {"fcfs", "fixed:20", "5604fe74f1ec4baa", 1350, "edf3461d558d1777"},
    {"fcfs", "break-even", "448b3697b6fd34bb", 1271, "bc527185049579f6"},
    {"fcfs", "randomized", "a09db7cdbb59fe5f", 1327, "dbd0b2b9c83a91a9"},
    {"fcfs", "ewma", "761369cfbb13bd5c", 1243, "eb6ba778a1237164"},
    {"fcfs", "share", "7f0dd7eb2da4c6a6", 1270, "ffd8da730856ea31"},
    {"fcfs", "slack", "131993de7f0004c9", 1269, "2e267a901614d257"},
    {"sstf", "never", "fd8de2f3c046f8f7", 1219, "d4d5be59eb0fa63f"},
    {"sstf", "fixed:0", "56a47a0989d38c07", 1447, "9ba39418d03abd89"},
    {"sstf", "fixed:20", "fe075c8563a6b05e", 1350, "3c927ff772e967b0"},
    {"sstf", "break-even", "d4e4d9683fa01599", 1271, "9b56ad85e8a3d2ce"},
    {"sstf", "randomized", "d99c9ea95709f1ab", 1327, "f11e5d19e66fd213"},
    {"sstf", "ewma", "5d2bf2bc947ba9ed", 1243, "b4b64cece6c54177"},
    {"sstf", "share", "5c2261fa6954ff56", 1270, "705dfa8d62320d65"},
    {"sstf", "slack", "a27b434715b2b030", 1269, "90eb944894d0616c"},
    {"scan", "never", "05ceab4b7d65f6c2", 1219, "4284420cfb365e35"},
    {"scan", "fixed:0", "517595ec21f43082", 1447, "b89eb086783e8f38"},
    {"scan", "fixed:20", "919b815fe50da882", 1350, "d5096aa8190a0965"},
    {"scan", "break-even", "cbb78e8d387e295b", 1271, "9806f7f851a4f319"},
    {"scan", "randomized", "a09543954fadf381", 1327, "2cffc5addd8bef6e"},
    {"scan", "ewma", "6c923ca4505e763c", 1243, "6eb7130ee0704433"},
    {"scan", "share", "c9f99827e7d40524", 1270, "ff949e5947ae3e60"},
    {"scan", "slack", "743ef401289358ec", 1269, "2cda6f857ddc22b3"},
    {"clook", "never", "88b592a73dd6d69f", 1219, "85b96ec729ba04cb"},
    {"clook", "fixed:0", "fcbc289077dc0036", 1447, "3ad571c64bf469f6"},
    {"clook", "fixed:20", "70da96bbfbbaa9a4", 1350, "9f46da4cdf27ad77"},
    {"clook", "break-even", "1e7bd7b719f28e18", 1271, "466b6fc32da7805a"},
    {"clook", "randomized", "ce46d796e6b777b5", 1327, "39780a3bb6ba21c3"},
    {"clook", "ewma", "6bdb795d9e972752", 1243, "aa6197badf54930e"},
    {"clook", "share", "ce680ab854367e9c", 1270, "e85505fe85c1d546"},
    {"clook", "slack", "a54e60984b28c406", 1269, "506b0a64a243abcb"},
    {"batch4", "never", "3b8f9b21b9e73748", 1219, "b4d2db8723e77824"},
    {"batch4", "fixed:0", "f7d3ffa320318d65", 1447, "df3149e68c0749db"},
    {"batch4", "fixed:20", "7cee447296003f39", 1350, "df2cbce52828dba4"},
    {"batch4", "break-even", "452643731dba6a60", 1271, "531096a169a54a59"},
    {"batch4", "randomized", "2a04f9a6883509e2", 1327, "a0b3f76841e2f765"},
    {"batch4", "ewma", "94f0d4bbd26d1f5e", 1243, "bff7259c58226fb1"},
    {"batch4", "share", "cdb8fa41d40db9b8", 1270, "0c044f90415f8e00"},
    {"batch4", "slack", "c56c5f1f56ebb317", 1269, "98ff04a10c439497"},
};
// clang-format on

TEST(SchedPolicyMatrix, EveryPairMatchesItsPinAtShards1And3) {
  ScenarioCache cache;
  const auto base = ScenarioSpec::parse(kBase);
  for (const char* sched : {"fcfs", "sstf", "scan", "clook", "batch4"}) {
    for (const char* policy : {"never", "fixed:0", "fixed:20", "break-even",
                               "randomized", "ewma", "share", "slack"}) {
      const Pin* pin = nullptr;
      for (const Pin& p : kPins) {
        if (std::string{p.sched} == sched && std::string{p.policy} == policy) {
          pin = &p;
        }
      }
      for (const std::uint32_t shards : {1u, 3u}) {
        SCOPED_TRACE(std::string{sched} + " x " + policy + " shards " +
                     std::to_string(shards));
        auto resolved = cache.resolve(
            base.with("sched", sched).with("policy", policy));
        resolved.config.shards = shards;
        obs::RunTrace trace;
        const RunResult r = run_experiment(resolved.config, &trace);
        const std::string got_result = physical_digest(r);
        const std::string got_trace = trace_digest(trace);
        if (pin == nullptr || got_result != pin->result ||
            r.events != pin->events || got_trace != pin->trace) {
          ADD_FAILURE() << "    {\"" << sched << "\", \"" << policy
                        << "\", \"" << got_result << "\", " << r.events
                        << ", \"" << got_trace << "\"},";
        }
      }
    }
  }
}

} // namespace
} // namespace spindown::sys
