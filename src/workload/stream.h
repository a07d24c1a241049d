// stream.h — request streams: the simulation's pull interface for arrivals.
//
// Implementations:
//   * ArrivalZipfStream — any ArrivalProcess (arrival.h) paired with Zipf
//     file choice (O(1) alias sampling).  This is the general synthetic
//     generator: Poisson reproduces Table 1; NHPP/MMPP produce the
//     non-stationary workloads that stress adaptive spin-down policies.
//   * TraceStream — replays a Trace (used for the NERSC experiments, where
//     "all of the 115,832 requests are regenerated based on the time in the
//     real life workload data").
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "util/rng.h"
#include "workload/arrival.h"
#include "workload/catalog.h"
#include "workload/distributions.h"
#include "workload/trace.h"

namespace spindown::workload {

struct Request {
  std::uint64_t id = 0;   ///< dense sequence number, 0-based
  double arrival = 0.0;   ///< seconds from simulation start
  FileId file = 0;
  /// Logical block address of the read, in the target disk's address space.
  /// kNoLba (the default) means "whole file at its catalog-layout extent";
  /// trace replays can pin a request to an explicit address instead.
  std::uint64_t lba = kNoLba;
};

/// Pull-based stream of requests in non-decreasing arrival order.
class RequestStream {
public:
  virtual ~RequestStream() = default;

  /// Write the next requests into `out`, in order, and return how many were
  /// written: fewer than out.size() means the stream has ended.  Filling a
  /// span of n gives the same requests, draw for draw, as n calls of next().
  virtual std::size_t fill(std::span<Request> out) = 0;

  /// Next request, or nullopt when the stream is exhausted: fill() of one.
  std::optional<Request> next() {
    Request r;
    if (fill(std::span{&r, 1}) == 0) return std::nullopt;
    return r;
  }
};

/// General synthetic generator: arrival times from an ArrivalProcess, file
/// choice by the catalog's popularity vector.
class ArrivalZipfStream final : public RequestStream {
public:
  /// Generates until `horizon` seconds (exclusive).
  ArrivalZipfStream(const FileCatalog& catalog,
                    std::unique_ptr<ArrivalProcess> arrivals, double horizon,
                    util::Rng rng);

  /// Draws every request of `out` first, in next()'s order (arrival, alias
  /// bucket, coin), then resolves the alias lookups in a second pass with
  /// the table prefetched ahead.  Allocates only when `out` is larger than
  /// any span filled before.
  std::size_t fill(std::span<Request> out) override;

  const ArrivalProcess& arrivals() const { return *arrivals_; }

private:
  std::unique_ptr<ArrivalProcess> arrivals_;
  double horizon_;
  util::Rng rng_;
  util::AliasTable file_choice_;
  std::vector<double> coins_; ///< the pending requests' alias coins
  std::uint64_t next_id_ = 0;
};

/// Replays a trace verbatim.
class TraceStream final : public RequestStream {
public:
  explicit TraceStream(const Trace& trace);

  std::size_t fill(std::span<Request> out) override;

private:
  const Trace& trace_;
  std::size_t pos_ = 0;
};

} // namespace spindown::workload
