#include "workload/stream.h"

#include <algorithm>
#include <stdexcept>

#include "util/prefetch.h"

namespace spindown::workload {

ArrivalZipfStream::ArrivalZipfStream(const FileCatalog& catalog,
                                     std::unique_ptr<ArrivalProcess> arrivals,
                                     double horizon, util::Rng rng)
    : arrivals_(std::move(arrivals)), horizon_(horizon), rng_(rng) {
  if (catalog.empty()) {
    throw std::invalid_argument{"ArrivalZipfStream: empty catalog"};
  }
  if (arrivals_ == nullptr) {
    throw std::invalid_argument{"ArrivalZipfStream: null arrival process"};
  }
  const auto probs = catalog.popularity_vector();
  file_choice_ = util::AliasTable{probs};
}

std::size_t ArrivalZipfStream::fill(std::span<Request> out) {
  if (coins_.size() < out.size()) coins_.resize(out.size());
  // Pass 1: every draw, in next()'s order; `file` holds the alias bucket.
  std::size_t n = 0;
  for (; n < out.size(); ++n) {
    const double t = arrivals_->next_arrival(rng_);
    if (t >= horizon_) break;
    Request& r = out[n];
    r.id = next_id_++;
    r.arrival = t;
    r.file = static_cast<FileId>(
        rng_.uniform_int(0, file_choice_.size() - 1));
    r.lba = kNoLba;
    coins_[n] = rng_.uniform01();
  }
  // Pass 2: the alias lookups, whose buckets are now all known.
  for (std::size_t i = 0; i < n; ++i) {
    if (i + util::kPrefetchAhead < n) {
      file_choice_.prefetch(out[i + util::kPrefetchAhead].file);
    }
    out[i].file = static_cast<FileId>(
        file_choice_.resolve(out[i].file, coins_[i]));
  }
  return n;
}

TraceStream::TraceStream(const Trace& trace) : trace_(trace) {}

std::size_t TraceStream::fill(std::span<Request> out) {
  const auto& records = trace_.records();
  const std::size_t n = std::min(out.size(), records.size() - pos_);
  const auto lbas = trace_.lbas();
  if (lbas.empty()) {
    for (std::size_t i = 0; i < n; ++i, ++pos_) {
      const auto& rec = records[pos_];
      out[i] = Request{pos_, rec.time, rec.file, kNoLba};
    }
  } else {
    for (std::size_t i = 0; i < n; ++i, ++pos_) {
      const auto& rec = records[pos_];
      out[i] = Request{pos_, rec.time, rec.file, lbas[pos_]};
    }
  }
  return n;
}

} // namespace spindown::workload
