#include "workload/nersc.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "support/physical_digest.h"
#include "util/units.h"
#include "workload/trace.h"

namespace spindown::workload {
namespace {

// The full-size synthesis is moderately expensive; build it once and check
// every published statistic against it (§5.1 of the paper).
class NerscTraceFixture : public ::testing::Test {
protected:
  static const Trace& trace() {
    static const Trace t = synthesize_nersc(NerscSpec::paper());
    return t;
  }
  static const TraceStats& stats() {
    static const TraceStats s = analyze(trace());
    return s;
  }
};

TEST_F(NerscTraceFixture, RequestAndFileCounts) {
  // Paper: 88,631 distinct files in 115,832 read requests.
  EXPECT_EQ(stats().requests, 115'832u);
  EXPECT_EQ(stats().distinct_files, 88'631u);
}

TEST_F(NerscTraceFixture, ThirtyDayDurationAndArrivalRate) {
  // Paper: average arrival rate 0.044683 requests/second over 30 days.
  EXPECT_NEAR(stats().duration_s, 30.0 * util::kDay, 1.0);
  EXPECT_NEAR(stats().arrival_rate, 0.044683, 0.0005);
}

TEST_F(NerscTraceFixture, MeanAccessedSizeNear544MB) {
  // Paper: mean size of accessed files 544 MB (7.56 s at 72 MB/s).
  EXPECT_NEAR(stats().mean_accessed_bytes, 544e6, 544e6 * 0.10);
}

TEST_F(NerscTraceFixture, MinimumStorageNear95Disks) {
  // Paper: "The minimum space required for storing all the requested files
  // is 95 disks" (500 GB each).
  const auto disks = stats().min_disks(util::gb(500.0));
  EXPECT_GE(disks, 85u);
  EXPECT_LE(disks, 105u);
}

TEST_F(NerscTraceFixture, SizeHistogramIsLogLogLinear) {
  // Paper: "the distribution of file sizes is closely related to a Zipf
  // distribution because the proportion decreases almost linearly in the
  // log-log scale."
  EXPECT_LT(stats().size_loglog_fit.slope, 0.0);
  EXPECT_GT(stats().size_loglog_fit.r2, 0.7);
}

TEST_F(NerscTraceFixture, NoSizeFrequencyCorrelation) {
  // Paper: "no significant relationship can be observed between the file
  // size and its access frequency."
  EXPECT_LT(std::abs(stats().size_frequency_correlation), 0.05);
}

TEST_F(NerscTraceFixture, ContainsSameSizeBatches) {
  // §3.2's phenomenon: bursts of similar-size files close together in time.
  // Scan for windows of >= 4 requests within 10 s whose sizes fall in a
  // narrow band (same log bin width as the synthesizer).
  const auto& times = trace().times();
  const auto& files = trace().files();
  const auto& cat = trace().catalog();
  std::size_t batchy_windows = 0;
  for (std::size_t i = 0; i + 4 < times.size(); ++i) {
    if (times[i + 3] - times[i] > 10.0) continue;
    const double s0 = static_cast<double>(cat.by_id(files[i]).size);
    bool similar = true;
    for (std::size_t j = i + 1; j < i + 4; ++j) {
      const double sj = static_cast<double>(cat.by_id(files[j]).size);
      if (sj < s0 / 1.2 || sj > s0 * 1.2) {
        similar = false;
        break;
      }
    }
    if (similar) ++batchy_windows;
  }
  EXPECT_GT(batchy_windows, 100u);
}

TEST(NerscSynth, DeterministicGivenSeed) {
  NerscSpec spec;
  spec.n_files = 500;
  spec.n_requests = 800;
  spec.duration_s = 10000.0;
  const auto a = synthesize_nersc(spec);
  const auto b = synthesize_nersc(spec);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.times()[i], b.times()[i]);
    EXPECT_EQ(a.files()[i], b.files()[i]);
  }
}

TEST(NerscSynth, StoresTwelveBytesPerRecord) {
  // The scenario grammar's nersc(2000,20000,7): exactly one time and one
  // file id per request, reserved to size, and no address column.
  NerscSpec spec;
  spec.n_files = 2000;
  spec.n_requests = 20'000;
  spec.seed = 7;
  const auto trace = synthesize_nersc(spec);
  ASSERT_EQ(trace.size(), spec.n_requests);
  EXPECT_EQ(trace.times().size(), spec.n_requests);
  EXPECT_EQ(trace.files().size(), spec.n_requests);
  EXPECT_EQ(trace.times().capacity(), trace.size());
  EXPECT_EQ(trace.files().capacity(), trace.size());
  EXPECT_TRUE(trace.lbas().empty());
}

TEST(NerscSynth, SeedChangesTrace) {
  NerscSpec spec;
  spec.n_files = 500;
  spec.n_requests = 800;
  spec.duration_s = 10000.0;
  const auto a = synthesize_nersc(spec);
  spec.seed += 1;
  const auto b = synthesize_nersc(spec);
  bool differs = false;
  for (std::size_t i = 0; i < a.size() && !differs; ++i) {
    differs = a.files()[i] != b.files()[i];
  }
  EXPECT_TRUE(differs);
}

TEST(NerscSynth, EveryFileRequestedAtLeastOnce) {
  NerscSpec spec;
  spec.n_files = 300;
  spec.n_requests = 400;
  spec.duration_s = 5000.0;
  const auto t = synthesize_nersc(spec);
  const auto stats = analyze(t);
  EXPECT_EQ(stats.distinct_files, 300u);
  EXPECT_EQ(stats.requests, 400u);
}

TEST(NerscSynth, RejectsFewerRequestsThanFiles) {
  NerscSpec spec;
  spec.n_files = 100;
  spec.n_requests = 50;
  EXPECT_THROW(synthesize_nersc(spec), std::invalid_argument);
}

/// The message synthesize_nersc throws for `spec` ("" if it does not).
std::string rejection(const NerscSpec& spec) {
  try {
    synthesize_nersc(spec);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(NerscSynth, RejectsNoFilesOrTooFewRequestsNamingBoth) {
  // nersc(0,0,1) used to fail deep in the catalog ("popularity sums to
  // zero", a std::logic_error) and nersc(0,10,1) in ZipfPopularity.
  NerscSpec spec;
  spec.n_files = 0;
  spec.n_requests = 0;
  EXPECT_EQ(rejection(spec),
            "NerscSpec: n_files 0 with n_requests 0: need at least one file "
            "and one request per file");
  spec.n_requests = 10;
  EXPECT_EQ(rejection(spec),
            "NerscSpec: n_files 0 with n_requests 10: need at least one file "
            "and one request per file");
  spec.n_files = 100;
  spec.n_requests = 50;
  EXPECT_EQ(rejection(spec),
            "NerscSpec: n_files 100 with n_requests 50: need at least one "
            "file and one request per file");
  spec.n_files = 1;
  spec.n_requests = 1;
  spec.duration_s = 1000.0;
  EXPECT_EQ(rejection(spec), "");
}

TEST(NerscSynth, RejectsBatchMinAboveBatchMax) {
  // nersc(10,20,1,1000,0.5,9,2): used to draw from a wrapped span.
  NerscSpec spec;
  spec.n_files = 10;
  spec.n_requests = 20;
  spec.duration_s = 1000.0;
  spec.batch_fraction = 0.5;
  spec.batch_min = 9;
  spec.batch_max = 2;
  EXPECT_EQ(rejection(spec), "NerscSpec: batch_min 9 exceeds batch_max 2");
  spec.batch_min = 2;
  EXPECT_EQ(rejection(spec), "");
}

TEST(NerscSynth, RejectsBatchFractionOutsideUnitInterval) {
  NerscSpec spec;
  spec.n_files = 10;
  spec.n_requests = 20;
  spec.batch_fraction = 1.5;
  EXPECT_EQ(rejection(spec),
            "NerscSpec: batch_fraction 1.5 is outside [0, 1]");
  spec.batch_fraction = -0.25;
  EXPECT_EQ(rejection(spec),
            "NerscSpec: batch_fraction -0.25 is outside [0, 1]");
  spec.batch_fraction = std::nan("");
  EXPECT_NE(rejection(spec).find("batch_fraction nan"), std::string::npos);
  for (const double f : {0.0, 1.0}) {
    spec.batch_fraction = f;
    EXPECT_EQ(rejection(spec), "");
  }
  // Every epoch a batch, and every batch empty: nothing would ever be drawn.
  spec.batch_min = 0;
  spec.batch_max = 0;
  EXPECT_EQ(rejection(spec),
            "NerscSpec: batch_max 0 with batch_fraction 1 emits no request");
}

TEST(NerscSynth, RejectsNonPositiveOrNonFiniteDuration) {
  NerscSpec spec;
  spec.n_files = 10;
  spec.n_requests = 20;
  spec.duration_s = 0.0;
  EXPECT_EQ(rejection(spec), "NerscSpec: duration_s 0 is not finite and > 0");
  spec.duration_s = -5.0;
  EXPECT_EQ(rejection(spec), "NerscSpec: duration_s -5 is not finite and > 0");
  spec.duration_s = std::numeric_limits<double>::infinity();
  EXPECT_EQ(rejection(spec),
            "NerscSpec: duration_s inf is not finite and > 0");
  spec.duration_s = std::nan("");
  EXPECT_NE(rejection(spec).find("duration_s nan"), std::string::npos);
}

TEST(NerscSynth, DiurnalModulationCreatesQuietNights) {
  NerscSpec spec;
  spec.n_files = 3000;
  spec.n_requests = 12'000;
  spec.duration_s = 10.0 * util::kDay;
  spec.day_fraction = 0.4;
  spec.night_intensity = 0.1;
  const auto trace = synthesize_nersc(spec);

  // Split arrivals by time of day.  The final rescale warps the period by
  // at most a few percent, so count over a slightly shrunk day window.
  std::size_t day = 0, night = 0;
  for (const double t : trace.times()) {
    const double tod = std::fmod(t, util::kDay);
    (tod < spec.day_fraction * util::kDay ? day : night) += 1;
  }
  // Expected ratio per unit time: 1 : 0.1; the day window holds 40% of the
  // day, so day/night counts should be roughly (0.4) : (0.6 * 0.1) ~ 6.7:1.
  EXPECT_GT(day, night * 3);
}

TEST(NerscSynth, DiurnalOffIsHomogeneous) {
  NerscSpec spec;
  spec.n_files = 3000;
  spec.n_requests = 12'000;
  spec.duration_s = 10.0 * util::kDay;
  spec.diurnal = false;
  const auto trace = synthesize_nersc(spec);
  std::size_t day = 0, night = 0;
  for (const double t : trace.times()) {
    const double tod = std::fmod(t, util::kDay);
    (tod < 0.4 * util::kDay ? day : night) += 1;
  }
  // Homogeneous Poisson: counts proportional to the window widths (40/60).
  const double ratio = static_cast<double>(day) / static_cast<double>(night);
  EXPECT_NEAR(ratio, 0.4 / 0.6, 0.08);
}

TEST(NerscSynth, DiurnalPreservesHeadlineStatistics) {
  // Modulation must not disturb the counts the paper publishes.
  NerscSpec spec;
  spec.n_files = 2000;
  spec.n_requests = 3000;
  spec.duration_s = 5.0 * util::kDay;
  const auto t_on = synthesize_nersc(spec);
  spec.diurnal = false;
  const auto t_off = synthesize_nersc(spec);
  const auto s_on = analyze(t_on);
  const auto s_off = analyze(t_off);
  EXPECT_EQ(s_on.requests, s_off.requests);
  EXPECT_EQ(s_on.distinct_files, s_off.distinct_files);
  EXPECT_NEAR(s_on.duration_s, s_off.duration_s, 1.0);
  EXPECT_NEAR(s_on.arrival_rate, s_off.arrival_rate, 1e-4);
}

// FNV-1a of every record (time bits, file, lba) and of every catalog entry
// (size, popularity bits), captured once from the straightforward
// synthesizer (generate, rescale, stable-sort).  Any change to the RNG draw
// order, the arithmetic or the tie order among equal times moves a digest.
struct SynthDigests {
  std::string records;
  std::string catalog;
};

SynthDigests synth_digests(const NerscSpec& spec) {
  const auto trace = synthesize_nersc(spec);
  test_support::Fnv1a rec;
  rec.add(std::uint64_t{trace.size()});
  for (std::size_t i = 0; i < trace.size(); ++i) {
    rec.add(trace.times()[i]);
    rec.add(std::uint64_t{trace.files()[i]});
    rec.add(trace.lba(i));
  }
  test_support::Fnv1a cat;
  cat.add(std::uint64_t{trace.catalog().size()});
  for (const auto& f : trace.catalog().files()) {
    cat.add(std::uint64_t{f.size});
    cat.add(f.popularity);
  }
  return {rec.hex(), cat.hex()};
}

NerscSpec small_spec(std::size_t files, std::size_t requests) {
  NerscSpec spec;
  spec.n_files = files;
  spec.n_requests = requests;
  spec.duration_s = 10.0 * util::kDay;
  return spec;
}

TEST(NerscSynth, GoldenDigests) {
  struct Case {
    const char* name;
    NerscSpec spec;
    const char* records;
    const char* catalog;
  };
  auto diurnal_off = small_spec(20'000, 50'000);
  diurnal_off.diurnal = false;
  auto batch_heavy = small_spec(20'000, 50'000);
  batch_heavy.batch_fraction = 0.9;
  batch_heavy.batch_min = 8;
  batch_heavy.batch_max = 40;
  // Zero spacing: every request of a batch shares one arrival time.
  auto ties = small_spec(20'000, 50'000);
  ties.batch_spacing_s = 0.0;
  // One request per file: no Zipf surplus is drawn.
  auto one_each = small_spec(20'000, 20'000);
  // nersc(2000,40000,7,3600,1.0,200,400): each batch spans 100-200 s, far
  // more than the few tens of seconds between epochs, so every batch tail
  // overlaps several later batches.  The synthesizer's insertion pass runs
  // out of moves, and the Trace constructor's stable sort finishes.
  NerscSpec overlap;
  overlap.n_files = 2000;
  overlap.n_requests = 40'000;
  overlap.seed = 7;
  overlap.duration_s = 3600.0;
  overlap.batch_fraction = 1.0;
  overlap.batch_min = 200;
  overlap.batch_max = 400;
  const Case cases[] = {
      {"paper", NerscSpec::paper(), "39041388b9597c09", "7e791e367236732d"},
      {"diurnal_off", diurnal_off, "2d95f2641194be2b", "8cd6ce1faf102579"},
      {"batch_heavy", batch_heavy, "7a969707a435a0d6", "8cd6ce1faf102579"},
      {"ties", ties, "5abea039b3489a76", "8cd6ce1faf102579"},
      {"one_each", one_each, "5b5dcc5bf54a45b3", "ccd43c123a02bcd7"},
      {"overlap", overlap, "1cfcd6e5735e0589", "a76364db15a28cef"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    const auto d = synth_digests(c.spec);
    EXPECT_EQ(d.records, c.records);
    EXPECT_EQ(d.catalog, c.catalog);
  }
}

} // namespace
} // namespace spindown::workload
