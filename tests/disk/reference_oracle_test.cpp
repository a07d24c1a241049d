// reference_oracle_test.cpp — disk::Disk against the naive reference disk
// (tests/support/reference_disk.h) on random single-disk traces.
//
// Each trace draws a policy (never, break-even, fixed:0 or fixed:T) and
// 1–60 arrivals.  Some gaps are random; others land exactly on a landmark
// the reference computed — the in-flight transfer start, the completion
// that drains the queue, the next sleep time or the next standby time — so
// the ties between an arrival and a disk transition are exercised on every
// run.  The disk is driven as the fleet drives it: each arrival is a
// submit at its time, which settles the disk to that time first.  Every
// per-request time and the horizon counters must match bit for bit.
#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "disk/disk.h"
#include "obs/trace.h"
#include "support/reference_disk.h"
#include "support/span_completions.h"
#include "sys/system.h"
#include "util/rng.h"

namespace spindown::disk {
namespace {

using test_support::ReferenceDisk;
using test_support::ReferenceRequest;

constexpr int kTraces = 2000;

/// The policy grammar spellings the reference models, with the threshold
/// each one means (nullopt = never).
struct OraclePolicy {
  std::string spec;
  std::optional<double> threshold;
};

std::vector<OraclePolicy> oracle_policies(const DiskParams& p) {
  return {{"never", std::nullopt},
          {"break-even", p.break_even_threshold()},
          {"fixed:0", 0.0},
          {"fixed:0.25", 0.25},
          {"fixed:3.5", 3.5},
          {"fixed:12", 12.0},
          {"fixed:40", 40.0}};
}

/// Next arrival: a landmark of the reference's current timeline, or a
/// random gap when the landmark is not usable (in the past or infinite).
double next_arrival(util::Rng& rng, const ReferenceDisk& ref, double last) {
  double a = -1.0;
  switch (rng.uniform_int(0, 9)) {
    case 0: a = last; break;
    case 1: a = ref.transfer_start(); break;
    case 2: a = ref.free_at(); break;
    case 3: a = ref.sleep_at(); break;
    case 4: a = ref.standby_at(); break;
    case 5:
    case 6: a = last + rng.uniform(0.0, 1.0); break;
    case 7:
    case 8: a = last + rng.uniform(0.0, 100.0); break;
    default: a = last + rng.uniform(0.0, 1000.0); break;
  }
  if (!(a >= last) || !std::isfinite(a)) a = last + rng.uniform(0.0, 30.0);
  return a;
}

/// Snapshot time: at the last completion, the final sleep or standby time,
/// or a random time after the last completion.
double pick_end(util::Rng& rng, const ReferenceDisk& ref) {
  double t = -1.0;
  switch (rng.uniform_int(0, 3)) {
    case 0: t = ref.free_at(); break;
    case 1: t = ref.sleep_at(); break;
    case 2: t = ref.standby_at(); break;
    default: t = ref.free_at() + rng.uniform(0.0, 500.0); break;
  }
  if (!std::isfinite(t)) t = ref.free_at() + rng.uniform(0.0, 500.0);
  return t;
}

TEST(ReferenceOracle, RandomTracesMatchTheNaiveDisk) {
  const DiskParams params = DiskParams::st3500630as();
  const auto policies = oracle_policies(params);
  for (int trace = 0; trace < kTraces; ++trace) {
    SCOPED_TRACE("trace " + std::to_string(trace));
    util::Rng rng{static_cast<std::uint64_t>(trace) + 1};
    const OraclePolicy& policy = policies[rng.uniform_int(
        0, policies.size() - 1)];
    SCOPED_TRACE("policy " + policy.spec);

    Disk disk(0, params,
              sys::PolicySpec::parse(policy.spec).make(params), util::Rng{1});
    obs::TraceBuffer spans{obs::kind_bit(obs::Kind::kSpan)};
    disk.set_trace(&spans);
    ReferenceDisk ref(params, policy.threshold);

    const auto n = rng.uniform_int(1, 60);
    std::vector<ReferenceRequest> want;
    double last = 0.0;
    for (std::uint64_t i = 0; i < n; ++i) {
      const double a = next_arrival(rng, ref, last);
      const util::Bytes bytes =
          rng.uniform_int(0, 3) == 0 ? 0 : rng.uniform_int(1, util::mb(150));
      want.push_back(ref.submit(a, bytes));
      disk.submit(a, i, bytes);
      last = a;
    }
    const double t_end = pick_end(rng, ref);
    const auto ref_m = ref.finish(t_end);
    const auto m = disk.metrics(t_end);

    // The disk reports response and wait relative to the arrival; the
    // reference side takes the same differences, so equality stays exact.
    const auto got = test_support::completions(spans);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].id, i);
      EXPECT_EQ(got[i].value, want[i].completion - want[i].arrival)
          << "request " << i;
      EXPECT_EQ(got[i].aux, want[i].service_start - want[i].arrival)
          << "request " << i;
      EXPECT_EQ(got[i].t, want[i].completion) << "request " << i;
    }
    for (std::size_t s = 0; s < kPowerStateCount; ++s) {
      EXPECT_EQ(m.state_time[s], ref_m.state_time[s])
          << to_string(static_cast<PowerState>(s));
    }
    EXPECT_EQ(m.spin_ups, ref_m.spin_ups);
    EXPECT_EQ(m.spin_downs, ref_m.spin_downs);
    EXPECT_EQ(m.idle_periods.total(), ref_m.idle_periods);
    if (HasFailure()) return; // one diverging trace is enough to debug
  }
}

} // namespace
} // namespace spindown::disk
