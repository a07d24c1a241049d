// nersc.h — synthetic substitute for the paper's NERSC workload log.
//
// The paper's §5.1 experiments replay a 30-day log of file read requests
// collected at NERSC (May 31 – June 29, 2008).  That log was never
// published, so we synthesize a trace that matches every aggregate statistic
// the paper reports about it:
//
//   * 88,631 distinct files, 115,832 read requests over 30 days
//     (mean arrival rate 0.044683 requests/second),
//   * mean size of accessed files 544 MB (~7.56 s service at 72 MB/s),
//   * minimum storage ~95 disks of 500 GB (~47.5 TB total),
//   * file sizes Zipf-like: the 80-bin size histogram decreases almost
//     linearly in log-log scale,
//   * no significant correlation between a file's size and its access
//     frequency,
//   * bursts of "a batch of files of similar sizes all at once" — the
//     phenomenon that motivates the Pack_Disks_v variant (§3.2).
//
// Downstream results (Figures 5, 6, and the group-size sweep) depend only on
// these aggregates — skewed cold-tail popularity, the arrival process, and
// burstiness — so matching them preserves the behaviour being measured.
//
// Set-up cost: arrival epochs are thinned against the diurnal profile with
// a day cursor instead of fmod, and each epoch's size bin is picked by
// remaining tokens in two levels (groups of 8 bins, then bins); both give
// the same values, draw for draw, as a per-epoch fmod and a linear scan.
// The records are written straight into the Trace's time and file
// columns, 12 bytes each, once the per-file sizes, counts and bins that
// built the catalog and the tokens are freed.
//
// Records are generated epoch by epoch, so they come out nearly sorted:
// only a batch's tail, at most (batch_max - 1) * batch_spacing_s long, can
// overlap later epochs.  The final rescale runs as an insertion pass that
// stable-sorts them in O(n + inversions), so the Trace constructor finds
// them sorted and skips its own sort.  On far from sorted input insertion
// stops after 8 moves per record on average, and the constructor's
// std::stable_sort finishes with the same result.
#pragma once

#include <cstdint>

#include "util/rng.h"
#include "util/units.h"
#include "workload/trace.h"

namespace spindown::workload {

struct NerscSpec {
  std::size_t n_files = 88'631;
  std::size_t n_requests = 115'832;
  double duration_s = 30.0 * util::kDay;
  util::Bytes mean_size = util::mb(544.0);
  util::Bytes min_size = util::mb(1.0);
  util::Bytes max_size = util::gb(20.0);
  /// Zipf exponent for the *extra* accesses beyond the one per distinct file.
  double popularity_exponent = 0.9;
  /// Fraction of arrival epochs that are batches of similar-size files.
  /// Scientific retrievals stage whole datasets, so most *requests* arrive
  /// in batches: 0.35 of epochs at mean batch size 8 puts ~80% of requests
  /// into batches, which is what Figures 5/6's flat Pack_Disk curves imply
  /// about the real log (the paper describes its batches only in words, so
  /// those curves are the evidence for their share).
  double batch_fraction = 0.35;
  /// Batch size range (uniform) when a batch fires.
  std::size_t batch_min = 4;
  std::size_t batch_max = 12;
  /// Spacing between requests inside one batch (seconds).
  double batch_spacing_s = 0.5;
  /// Diurnal modulation: arrival intensity is high for `day_fraction` of
  /// each 24 h cycle and `night_intensity` (relative) otherwise.  Real
  /// data-center logs have strong quiet periods; without them no disk could
  /// ever sleep past a 2 h threshold at the published arrival rate, yet the
  /// paper's Figure 5 shows random placement still saving ~30% there.
  bool diurnal = true;
  double day_fraction = 0.4;
  double night_intensity = 0.12;
  std::uint64_t seed = 20090531; ///< default: the log's start date

  static NerscSpec paper();

  friend bool operator==(const NerscSpec&, const NerscSpec&) = default;
};

/// Build the synthetic trace.  Deterministic given the spec (seed included).
/// Throws std::invalid_argument, naming the field and its value, when
/// n_files is 0 or n_requests < n_files (both values named), batch_min >
/// batch_max, batch_fraction is outside [0, 1], batch_max is 0 with
/// batch_fraction 1, or duration_s is not finite and > 0.
Trace synthesize_nersc(const NerscSpec& spec);

} // namespace spindown::workload
