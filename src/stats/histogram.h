// histogram.h — fixed-bin histograms with percentile estimation.
//
// Two binning schemes:
//   * LinearHistogram — equal-width bins over [lo, hi); under/overflow bins.
//   * LogHistogram    — log-spaced bins, used to reproduce the paper's
//     80-bin file-size classification of the NERSC workload (§5.1).
#pragma once

#include <cstdint>
#include <vector>

namespace spindown::stats {

class LinearHistogram {
public:
  /// [lo, hi) split into `bins` equal cells, plus underflow and overflow.
  LinearHistogram(double lo, double hi, std::size_t bins);

  void add(double x, std::uint64_t weight = 1);

  /// Exact bin-wise accumulation of `other` (identical geometry required;
  /// throws std::invalid_argument otherwise).  Integer adds commute, so the
  /// merged histogram is independent of merge order — the property the
  /// sharded-simulation aggregation relies on.
  void merge(const LinearHistogram& other);

  std::uint64_t total() const { return total_; }
  std::size_t bins() const { return counts_.size(); }
  std::uint64_t bin_count(std::size_t i) const { return counts_[i]; }
  std::uint64_t underflow() const { return underflow_; }
  std::uint64_t overflow() const { return overflow_; }

  double lo() const { return lo_; }
  double hi() const { return hi_; }
  double bin_lo(std::size_t i) const;
  double bin_hi(std::size_t i) const;

  /// Percentile estimate by linear interpolation inside the containing bin.
  /// Underflow clamps to lo, overflow to hi.  p in [0,100].
  double percentile(double p) const;

private:
  double lo_, hi_, width_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t underflow_ = 0, overflow_ = 0, total_ = 0;
};

class LogHistogram {
public:
  /// Log-spaced bins covering [lo, hi); lo must be > 0.
  LogHistogram(double lo, double hi, std::size_t bins);

  void add(double x, std::uint64_t weight = 1);

  /// Exact bin-wise accumulation of `other` (identical geometry required;
  /// throws std::invalid_argument otherwise).  Order-independent.
  void merge(const LogHistogram& other);

  std::uint64_t total() const { return total_; }
  std::size_t bins() const { return counts_.size(); }
  std::uint64_t bin_count(std::size_t i) const { return counts_[i]; }

  double bin_lo(std::size_t i) const;
  double bin_hi(std::size_t i) const;
  /// Geometric midpoint of bin i (natural x-coordinate on a log axis).
  double bin_mid(std::size_t i) const;

  /// Samples that actually landed in a bin: add() drops non-positive
  /// values from the bins while still counting them in total(), so the
  /// summary statistics below use this as their denominator.
  std::uint64_t binned() const;
  /// Mean estimated from geometric bin midpoints over the binned mass
  /// (0 when no binned samples).
  double mean() const;
  /// Percentile estimate by log-linear interpolation inside the containing
  /// bin, over the binned mass.  p in [0,100]; 0 when no binned samples.
  double percentile(double p) const;

private:
  double log_lo_, log_hi_, log_width_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

} // namespace spindown::stats
