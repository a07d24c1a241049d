#include "workload/nersc.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "workload/arrival.h"
#include "workload/distributions.h"

namespace spindown::workload {

NerscSpec NerscSpec::paper() {
  return NerscSpec{}; // defaults mirror §5.1
}

namespace {

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
  if (spec.n_requests < spec.n_files) {
    throw std::invalid_argument{"NerscSpec: n_requests < n_files"};
  }
  std::vector<std::uint32_t> counts(spec.n_files, 1);
  const std::size_t extra = spec.n_requests - spec.n_files;
  if (extra == 0) return counts;

  // Zipf weights over popularity ranks; ranks map to files via a shuffle.
  const ZipfPopularity zipf{spec.n_files, spec.popularity_exponent};
  util::AliasTable alias{zipf.probabilities()};
  std::vector<std::uint32_t> rank_to_file(spec.n_files);
  std::iota(rank_to_file.begin(), rank_to_file.end(), 0u);
  rng.shuffle(std::span{rank_to_file});
  for (std::size_t e = 0; e < extra; ++e) {
    counts[rank_to_file[alias.sample(rng)]] += 1;
  }
  return counts;
}

} // namespace

Trace synthesize_nersc(const NerscSpec& spec) {
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
  // similar-size files (the §3.2 phenomenon).
  const double lo = std::max<double>(1.0, static_cast<double>(spec.min_size));
  const double hi = static_cast<double>(spec.max_size) * 1.0001;
  constexpr std::size_t kBins = 80;
  const double log_lo = std::log(lo);
  const double log_w = (std::log(hi) - log_lo) / static_cast<double>(kBins);
  auto bin_of = [&](util::Bytes s) {
    const double ls = std::log(std::max<double>(1.0, static_cast<double>(s)));
    auto b = static_cast<std::size_t>((ls - log_lo) / log_w);
    return std::min(b, kBins - 1);
  };

  std::vector<std::vector<FileId>> bin_tokens(kBins);
  for (std::size_t i = 0; i < spec.n_files; ++i) {
    for (std::uint32_t c = 0; c < counts[i]; ++c) {
      bin_tokens[bin_of(sizes[i])].push_back(static_cast<FileId>(i));
    }
  }
  // Shuffle within each bin so batch membership is not id-ordered.
  for (auto& tokens : bin_tokens) rng.shuffle(std::span{tokens});

  // Remaining-token counts drive weighted bin choice for singleton arrivals.
  std::size_t remaining = spec.n_requests;
  auto pop_from_bin = [&](std::size_t b) {
    FileId f = bin_tokens[b].back();
    bin_tokens[b].pop_back();
    --remaining;
    return f;
  };
  auto pick_weighted_bin = [&]() {
    // Weighted by remaining tokens; linear scan over 80 bins is cheap.
    auto target = rng.uniform_int(0, remaining - 1);
    for (std::size_t b = 0; b < kBins; ++b) {
      const auto sz = bin_tokens[b].size();
      if (target < sz) return b;
      target -= sz;
    }
    // Floating-point-free arithmetic: unreachable if counts are consistent.
    for (std::size_t b = kBins; b-- > 0;) {
      if (!bin_tokens[b].empty()) return b;
    }
    throw std::logic_error{"nersc synth: token pools exhausted early"};
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
  auto next_epoch = [&]() {
    for (;;) {
      const double t = epochs.next_arrival(rng);
      if (!spec.diurnal) return t;
      const double tod = std::fmod(t, util::kDay);
      const double intensity =
          tod < spec.day_fraction * util::kDay ? 1.0 : spec.night_intensity;
      if (rng.uniform01() <= intensity) return t;
    }
  };

  std::vector<TraceRecord> records;
  records.reserve(spec.n_requests);
  while (remaining > 0) {
    const double t = next_epoch();
    const bool batch = rng.uniform01() < spec.batch_fraction;
    if (batch) {
      // A user fetching a batch of similar-size files: one bin, k tokens.
      std::size_t b = pick_weighted_bin();
      const auto want = static_cast<std::size_t>(
          rng.uniform_int(spec.batch_min, spec.batch_max));
      const auto k = std::min({want, bin_tokens[b].size(), remaining});
      for (std::size_t j = 0; j < k; ++j) {
        records.push_back(
            TraceRecord{t + static_cast<double>(j) * spec.batch_spacing_s,
                        pop_from_bin(b)});
      }
    } else {
      records.push_back(TraceRecord{t, pop_from_bin(pick_weighted_bin())});
    }
  }
  assert(records.size() == spec.n_requests);

  // Rescale timestamps to land the last arrival exactly at duration_s; this
  // pins the mean arrival rate to the published 0.044683/s.
  const double t_max =
      std::max_element(records.begin(), records.end(),
                       [](auto& a, auto& b) { return a.time < b.time; })
          ->time;
  if (t_max > 0.0) {
    const double scale = spec.duration_s / t_max;
    for (auto& r : records) r.time *= scale;
  }

  return Trace{std::move(catalog), std::move(records)};
}

} // namespace spindown::workload
