#include "stats/summary.h"

#include <stdexcept>

namespace spindown::stats {

ResponseSummary::ResponseSummary() : hist_(kHistLo, kHistHi, kHistBins) {}

void ResponseSummary::add(double seconds) {
  moments_.add(seconds);
  hist_.add(seconds);
}

void ResponseSummary::merge(const ResponseSummary& other) {
  moments_.merge(other.moments_);
  hist_.merge(other.hist_);
}

ResponseSummary ResponseSummary::from_parts(const Welford& moments,
                                            const LinearHistogram& hist) {
  ResponseSummary out;
  if (hist.lo() != kHistLo || hist.hi() != kHistHi ||
      hist.bins() != kHistBins) {
    throw std::invalid_argument{
        "ResponseSummary::from_parts: histogram must use the canonical "
        "geometry (kHistLo/kHistHi/kHistBins)"};
  }
  if (moments.count() != hist.total()) {
    throw std::invalid_argument{
        "ResponseSummary::from_parts: moments and histogram disagree on the "
        "sample count"};
  }
  out.moments_ = moments;
  out.hist_ = hist;
  return out;
}

} // namespace spindown::stats
