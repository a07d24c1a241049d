#include "stats/histogram.h"

#include <cassert>
#include <cmath>
#include <stdexcept>

namespace spindown::stats {

LinearHistogram::LinearHistogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(bins)),
      counts_(bins, 0) {
  assert(hi > lo);
  assert(bins > 0);
}

void LinearHistogram::add(double x, std::uint64_t weight) {
  total_ += weight;
  if (x < lo_) {
    underflow_ += weight;
    return;
  }
  if (x >= hi_) {
    overflow_ += weight;
    return;
  }
  auto idx = static_cast<std::size_t>((x - lo_) / width_);
  if (idx >= counts_.size()) idx = counts_.size() - 1; // float edge case
  counts_[idx] += weight;
}

void LinearHistogram::merge(const LinearHistogram& other) {
  if (lo_ != other.lo_ || hi_ != other.hi_ ||
      counts_.size() != other.counts_.size()) {
    throw std::invalid_argument{
        "LinearHistogram::merge: geometry mismatch (lo/hi/bins must agree)"};
  }
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  underflow_ += other.underflow_;
  overflow_ += other.overflow_;
  total_ += other.total_;
}

double LinearHistogram::bin_lo(std::size_t i) const {
  return lo_ + width_ * static_cast<double>(i);
}

double LinearHistogram::bin_hi(std::size_t i) const {
  return lo_ + width_ * static_cast<double>(i + 1);
}

double LinearHistogram::percentile(double p) const {
  if (total_ == 0) return lo_;
  if (p <= 0.0) return lo_;
  if (p >= 100.0) return hi_;
  const double target = p / 100.0 * static_cast<double>(total_);
  double cum = static_cast<double>(underflow_);
  if (target <= cum) return lo_;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const double next = cum + static_cast<double>(counts_[i]);
    if (target <= next && counts_[i] > 0) {
      const double frac = (target - cum) / static_cast<double>(counts_[i]);
      return bin_lo(i) + frac * width_;
    }
    cum = next;
  }
  return hi_;
}

LogHistogram::LogHistogram(double lo, double hi, std::size_t bins)
    : log_lo_(std::log(lo)), log_hi_(std::log(hi)),
      log_width_((std::log(hi) - std::log(lo)) / static_cast<double>(bins)),
      counts_(bins, 0) {
  assert(lo > 0.0 && hi > lo);
  assert(bins > 0);
}

void LogHistogram::add(double x, std::uint64_t weight) {
  total_ += weight;
  if (x <= 0.0) return; // non-positive values cannot be log-binned; dropped
  const double lx = std::log(x);
  if (lx < log_lo_) {
    counts_.front() += weight; // clamp into the edge bins
    return;
  }
  if (lx >= log_hi_) {
    counts_.back() += weight;
    return;
  }
  auto idx = static_cast<std::size_t>((lx - log_lo_) / log_width_);
  if (idx >= counts_.size()) idx = counts_.size() - 1;
  counts_[idx] += weight;
}

void LogHistogram::merge(const LogHistogram& other) {
  if (log_lo_ != other.log_lo_ || log_hi_ != other.log_hi_ ||
      counts_.size() != other.counts_.size()) {
    throw std::invalid_argument{
        "LogHistogram::merge: geometry mismatch (lo/hi/bins must agree)"};
  }
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  total_ += other.total_;
}

double LogHistogram::bin_lo(std::size_t i) const {
  return std::exp(log_lo_ + log_width_ * static_cast<double>(i));
}

double LogHistogram::bin_hi(std::size_t i) const {
  return std::exp(log_lo_ + log_width_ * static_cast<double>(i + 1));
}

double LogHistogram::bin_mid(std::size_t i) const {
  return std::exp(log_lo_ + log_width_ * (static_cast<double>(i) + 0.5));
}

std::uint64_t LogHistogram::binned() const {
  std::uint64_t n = 0;
  for (auto c : counts_) n += c;
  return n;
}

double LogHistogram::mean() const {
  const std::uint64_t n = binned();
  if (n == 0) return 0.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    sum += static_cast<double>(counts_[i]) * bin_mid(i);
  }
  return sum / static_cast<double>(n);
}

double LogHistogram::percentile(double p) const {
  const std::uint64_t n = binned();
  if (n == 0) return 0.0;
  if (p <= 0.0) return bin_lo(0);
  if (p >= 100.0) return bin_hi(counts_.size() - 1);
  const double target = p / 100.0 * static_cast<double>(n);
  double cum = 0.0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const double next = cum + static_cast<double>(counts_[i]);
    if (target <= next && counts_[i] > 0) {
      const double frac = (target - cum) / static_cast<double>(counts_[i]);
      return std::exp(log_lo_ +
                      log_width_ * (static_cast<double>(i) + frac));
    }
    cum = next;
  }
  return bin_hi(counts_.size() - 1);
}

} // namespace spindown::stats
