// summary.h — the response-time summary reported by every experiment.
#pragma once

#include "stats/histogram.h"
#include "stats/welford.h"

namespace spindown::stats {

/// Streaming summary of a response-time series: moments plus a histogram for
/// percentiles.  The histogram range covers everything a single request can
/// plausibly take in our model (sub-second cache hits through multi-minute
/// queue + spin-up + 20 GB transfers).
class ResponseSummary {
public:
  /// Canonical histogram geometry: 0..2000 s in 0.1 s cells — fine enough
  /// for sub-second percentiles, wide enough that only pathological runs
  /// overflow (overflow still counted).  Every ResponseSummary shares it,
  /// which is what makes merge() exact.
  static constexpr double kHistLo = 0.0;
  static constexpr double kHistHi = 2000.0;
  static constexpr std::size_t kHistBins = 20000;

  ResponseSummary();

  void add(double seconds);
  /// Exact merge: moments via Chan's parallel formula, histogram bin-wise
  /// (no midpoint re-binning — under/overflow and every cell carry over
  /// exactly).  Note the moment combine is floating-point-order-dependent;
  /// aggregation paths that must be bitwise reproducible across shardings
  /// rebuild via from_parts() from per-disk accumulators instead.
  void merge(const ResponseSummary& other);

  /// Assemble a summary from separately accumulated parts — the sharded
  /// simulation's canonical aggregation: moments folded in disk-id order,
  /// histograms merged bin-wise.  `hist` must use the canonical geometry.
  static ResponseSummary from_parts(const Welford& moments,
                                    const LinearHistogram& hist);

  const Welford& moments() const { return moments_; }
  const LinearHistogram& histogram() const { return hist_; }

  std::uint64_t count() const { return moments_.count(); }
  double mean() const { return moments_.mean(); }
  double stddev() const { return moments_.stddev(); }
  double min() const { return moments_.min(); }
  double max() const { return moments_.max(); }
  double p50() const { return hist_.percentile(50.0); }
  double p95() const { return hist_.percentile(95.0); }
  double p99() const { return hist_.percentile(99.0); }

private:
  Welford moments_;
  LinearHistogram hist_;
};

} // namespace spindown::stats
