#include "workload/nersc.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>

#include "util/prefetch.h"
#include "workload/arrival.h"
#include "workload/distributions.h"

namespace spindown::workload {

NerscSpec NerscSpec::paper() {
  return NerscSpec{}; // defaults mirror §5.1
}

namespace {

/// Reject file counts and batch and duration settings the generator cannot
/// honour, naming the field and its value.
void validate(const NerscSpec& spec) {
  if (spec.n_files == 0 || spec.n_requests < spec.n_files) {
    throw std::invalid_argument{
        "NerscSpec: n_files " + std::to_string(spec.n_files) +
        " with n_requests " + std::to_string(spec.n_requests) +
        ": need at least one file and one request per file"};
  }
  if (spec.batch_min > spec.batch_max) {
    throw std::invalid_argument{
        "NerscSpec: batch_min " + std::to_string(spec.batch_min) +
        " exceeds batch_max " + std::to_string(spec.batch_max)};
  }
  if (!(spec.batch_fraction >= 0.0 && spec.batch_fraction <= 1.0)) {
    throw std::invalid_argument{"NerscSpec: batch_fraction " +
                                util::format_roundtrip(spec.batch_fraction) +
                                " is outside [0, 1]"};
  }
  if (spec.batch_max == 0 && spec.batch_fraction == 1.0) {
    throw std::invalid_argument{
        "NerscSpec: batch_max 0 with batch_fraction 1 emits no request"};
  }
  if (!(std::isfinite(spec.duration_s) && spec.duration_s > 0.0)) {
    throw std::invalid_argument{"NerscSpec: duration_s " +
                                util::format_roundtrip(spec.duration_s) +
                                " is not finite and > 0"};
  }
}

/// Sizes: bounded Pareto calibrated to the target mean.  Heavy-tailed, so
/// the 80-bin histogram is log-log linear, matching the paper's observation.
std::vector<util::Bytes> draw_sizes(const NerscSpec& spec, util::Rng& rng) {
  const auto pareto = BoundedPareto::with_mean(
      static_cast<double>(spec.min_size), static_cast<double>(spec.max_size),
      static_cast<double>(spec.mean_size));
  std::vector<util::Bytes> sizes(spec.n_files);
  for (auto& s : sizes) {
    s = static_cast<util::Bytes>(pareto.sample(rng));
  }
  return sizes;
}

/// Access counts: every distinct file appears at least once (the paper saw
/// 88,631 distinct files in 115,832 requests); the surplus is spread
/// Zipf-like over a random permutation of files, making popularity
/// independent of size.
std::vector<std::uint32_t> draw_access_counts(const NerscSpec& spec,
                                              util::Rng& rng) {
  std::vector<std::uint32_t> counts(spec.n_files, 1);
  const std::size_t extra = spec.n_requests - spec.n_files;
  if (extra == 0) return counts;

  // Zipf weights over popularity ranks; ranks map to files via a shuffle.
  const ZipfPopularity zipf{spec.n_files, spec.popularity_exponent};
  std::vector<std::uint32_t> rank_to_file(spec.n_files);
  std::iota(rank_to_file.begin(), rank_to_file.end(), 0u);
  rng.shuffle(std::span{rank_to_file});
  // Count by rank first: hot ranks stay in cache, and the file lookup is
  // one sequential pass.  The samples are drawn a chunk at a time (bucket,
  // coin: zipf.sample()'s order), then resolved with the alias table
  // prefetched ahead.
  std::vector<std::uint32_t> by_rank(spec.n_files, 0);
  const util::AliasTable& alias = zipf.alias();
  constexpr std::size_t kChunk = 4096;
  std::vector<std::uint32_t> buckets(std::min(kChunk, extra));
  std::vector<double> coins(buckets.size());
  for (std::size_t e = 0; e < extra; e += kChunk) {
    const std::size_t m = std::min(kChunk, extra - e);
    for (std::size_t j = 0; j < m; ++j) {
      buckets[j] =
          static_cast<std::uint32_t>(rng.uniform_int(0, spec.n_files - 1));
      coins[j] = rng.uniform01();
    }
    for (std::size_t j = 0; j < m; ++j) {
      if (j + util::kPrefetchAhead < m) {
        alias.prefetch(buckets[j + util::kPrefetchAhead]);
      }
      by_rank[alias.resolve(buckets[j], coins[j])] += 1;
    }
  }
  for (std::size_t r = 0; r < spec.n_files; ++r) {
    counts[rank_to_file[r]] += by_rank[r];
  }
  return counts;
}

/// Scale every time by `scale` and, in the same pass, stable-sort the
/// nearly sorted records by time with insertion: O(n + inversions).
/// Insertion moves a record only past larger times, so records of equal
/// time keep their order.  Far from sorted input would make this quadratic,
/// so insertion stops after 8 moves per record on average; the rest is only
/// scaled, and the Trace constructor's std::stable_sort finishes in
/// O(n log n).  The order is the same either way: at every step of this
/// pass, records of equal time are still in input order.
void scale_and_sort(std::vector<TraceRecord>& records, double scale) {
  std::size_t moves_left = 8 * records.size();
  for (std::size_t i = 0; i < records.size(); ++i) {
    TraceRecord r = records[i];
    r.time *= scale;
    std::size_t j = i;
    for (; j > 0 && moves_left > 0 && r.time < records[j - 1].time; --j) {
      records[j] = records[j - 1];
      --moves_left;
    }
    records[j] = r;
  }
}

} // namespace

Trace synthesize_nersc(const NerscSpec& spec) {
  validate(spec);
  util::Rng rng{spec.seed};

  const auto sizes = draw_sizes(spec, rng);
  const auto counts = draw_access_counts(spec, rng);

  // Catalog: popularity proportional to access count.
  std::vector<FileInfo> files(spec.n_files);
  for (std::size_t i = 0; i < spec.n_files; ++i) {
    files[i].id = static_cast<FileId>(i);
    files[i].size = sizes[i];
    files[i].popularity = static_cast<double>(counts[i]);
  }
  FileCatalog catalog{std::move(files)};
  catalog.normalize_popularity();

  // Request tokens grouped into 80 size bins so batches can draw
  // similar-size files (the §3.2 phenomenon).  The bins are slices of one
  // token array; `left[b]` counts the tokens bin b has not handed out yet,
  // which sit at the front of its slice.
  const double lo = std::max<double>(1.0, static_cast<double>(spec.min_size));
  const double hi = static_cast<double>(spec.max_size) * 1.0001;
  constexpr std::size_t kBins = 80;
  const double log_lo = std::log(lo);
  const double log_w = (std::log(hi) - log_lo) / static_cast<double>(kBins);
  std::vector<std::uint8_t> bin_of(spec.n_files);
  std::array<std::size_t, kBins> left{};
  for (std::size_t i = 0; i < spec.n_files; ++i) {
    const double ls =
        std::log(std::max<double>(1.0, static_cast<double>(sizes[i])));
    const auto b = std::min(
        static_cast<std::size_t>((ls - log_lo) / log_w), kBins - 1);
    bin_of[i] = static_cast<std::uint8_t>(b);
    left[b] += counts[i];
  }
  std::array<std::size_t, kBins> start{};
  std::exclusive_scan(left.begin(), left.end(), start.begin(), std::size_t{0});
  std::vector<FileId> tokens(spec.n_requests);
  {
    auto fill = start;
    for (std::size_t i = 0; i < spec.n_files; ++i) {
      std::fill_n(tokens.data() + fill[bin_of[i]], counts[i],
                  static_cast<FileId>(i));
      fill[bin_of[i]] += counts[i];
    }
  }
  // Shuffle within each bin so batch membership is not id-ordered.
  for (std::size_t b = 0; b < kBins; ++b) {
    rng.shuffle(std::span{tokens}.subspan(start[b], left[b]));
  }
  // Remaining tokens per group of 8 consecutive bins, so a weighted pick
  // skips whole groups before it scans bins.
  constexpr std::size_t kGroup = 8;
  static_assert(kBins % kGroup == 0);
  std::array<std::size_t, kBins / kGroup> group_left{};
  for (std::size_t b = 0; b < kBins; ++b) group_left[b / kGroup] += left[b];

  // Tokens leave a bin from the back of its slice.
  std::size_t remaining = spec.n_requests;
  auto pop_from_bin = [&](std::size_t b) {
    --remaining;
    --group_left[b / kGroup];
    return tokens[start[b] + --left[b]];
  };
  auto pick_weighted_bin = [&]() {
    // Weighted by remaining tokens: the first bin whose running sum passes
    // the target, found group first, then bin.  The counts sum to
    // `remaining`, so both scans stop inside their arrays.
    auto target = rng.uniform_int(0, remaining - 1);
    std::size_t g = 0;
    for (; target >= group_left[g]; ++g) target -= group_left[g];
    std::size_t b = g * kGroup;
    for (; target >= left[b]; ++b) target -= left[b];
    return b;
  };

  // Arrival epochs: Poisson with rate chosen so the expected request count
  // over `duration_s` equals n_requests given the batch mix.  With diurnal
  // modulation the process is non-homogeneous (thinning against the peak
  // rate); the final rescale pins the exact duration either way.
  const double mean_batch =
      0.5 * static_cast<double>(spec.batch_min + spec.batch_max);
  const double per_epoch =
      spec.batch_fraction * mean_batch + (1.0 - spec.batch_fraction);
  const double epoch_rate =
      static_cast<double>(spec.n_requests) / (spec.duration_s * per_epoch);
  const double mean_intensity =
      spec.day_fraction + (1.0 - spec.day_fraction) * spec.night_intensity;
  const double peak_rate =
      spec.diurnal ? epoch_rate / mean_intensity : epoch_rate;
  PoissonArrivals epochs{peak_rate};
  double day0 = 0.0; // start of the day holding the latest epoch
  auto next_epoch = [&]() {
    for (;;) {
      const double t = epochs.next_arrival(rng);
      if (!spec.diurnal) return t;
      // Epochs only move forward, so the day advances as a cursor.  With t
      // in [day0, day0 + kDay), t - day0 is fmod(t, kDay) exactly: day0 is
      // a whole number of days (exact), and for day0 > 0 it is at least
      // t / 2, so the subtraction is exact (Sterbenz).
      while (t >= day0 + util::kDay) day0 += util::kDay;
      const double tod = t - day0;
      const double intensity =
          tod < spec.day_fraction * util::kDay ? 1.0 : spec.night_intensity;
      if (rng.uniform01() <= intensity) return t;
    }
  };

  // Records come out in epoch order; only batch tails, at most
  // (batch_max - 1) * batch_spacing_s long, overlap later epochs.
  std::vector<TraceRecord> records;
  records.reserve(spec.n_requests);
  double t_max = 0.0;
  auto emit = [&](double t, FileId f) {
    records.push_back(TraceRecord{t, f});
    t_max = std::max(t_max, t);
  };
  while (remaining > 0) {
    const double t = next_epoch();
    const bool batch = rng.uniform01() < spec.batch_fraction;
    if (batch) {
      // A user fetching a batch of similar-size files: one bin, k tokens.
      std::size_t b = pick_weighted_bin();
      const auto want = static_cast<std::size_t>(
          rng.uniform_int(spec.batch_min, spec.batch_max));
      const auto k = std::min(want, left[b]);
      for (std::size_t j = 0; j < k; ++j) {
        emit(t + static_cast<double>(j) * spec.batch_spacing_s,
             pop_from_bin(b));
      }
    } else {
      emit(t, pop_from_bin(pick_weighted_bin()));
    }
  }
  assert(records.size() == spec.n_requests);

  // Rescale timestamps to land the last arrival exactly at duration_s; this
  // pins the mean arrival rate to the published 0.044683/s.
  scale_and_sort(records, t_max > 0.0 ? spec.duration_s / t_max : 1.0);

  return Trace{std::move(catalog), std::move(records)};
}

} // namespace spindown::workload
