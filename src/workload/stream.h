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

#include <cstdint>
#include <memory>
#include <optional>

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
  /// Next request, or nullopt when the stream is exhausted.
  virtual std::optional<Request> next() = 0;
};

/// General synthetic generator: arrival times from an ArrivalProcess, file
/// choice by the catalog's popularity vector.
class ArrivalZipfStream final : public RequestStream {
public:
  /// Generates until `horizon` seconds (exclusive).
  ArrivalZipfStream(const FileCatalog& catalog,
                    std::unique_ptr<ArrivalProcess> arrivals, double horizon,
                    util::Rng rng);

  std::optional<Request> next() override;

  const ArrivalProcess& arrivals() const { return *arrivals_; }

private:
  std::unique_ptr<ArrivalProcess> arrivals_;
  double horizon_;
  util::Rng rng_;
  util::AliasTable file_choice_;
  std::uint64_t next_id_ = 0;
};

/// Replays a trace verbatim.
class TraceStream final : public RequestStream {
public:
  explicit TraceStream(const Trace& trace);

  std::optional<Request> next() override;

private:
  const Trace& trace_;
  std::size_t pos_ = 0;
};

} // namespace spindown::workload
