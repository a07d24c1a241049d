#include "workload/stream.h"

#include <stdexcept>

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

std::optional<Request> ArrivalZipfStream::next() {
  const double t = arrivals_->next_arrival(rng_);
  if (t >= horizon_) return std::nullopt;
  Request r;
  r.id = next_id_++;
  r.arrival = t;
  r.file = static_cast<FileId>(file_choice_.sample(rng_));
  return r;
}

TraceStream::TraceStream(const Trace& trace) : trace_(trace) {}

std::optional<Request> TraceStream::next() {
  if (pos_ >= trace_.size()) return std::nullopt;
  const auto& rec = trace_.records()[pos_];
  Request r;
  r.id = pos_;
  r.arrival = rec.time;
  r.file = rec.file;
  r.lba = rec.lba;
  ++pos_;
  return r;
}

} // namespace spindown::workload
