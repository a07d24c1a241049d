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

/// Structure-of-arrays storage for a window of pre-generated requests.
/// The fleet router (sys/fleet.h) fills one block per synchronization
/// window and scans the parallel arrays when routing; keeping the fields
/// in separate contiguous vectors avoids dragging the full Request stride
/// through the cache when a pass only needs arrival times and file ids.
struct RequestBlock {
  std::vector<double> arrival;
  std::vector<std::uint64_t> id;
  std::vector<FileId> file;
  std::vector<std::uint64_t> lba;

  std::size_t size() const { return arrival.size(); }
  bool empty() const { return arrival.empty(); }
  void clear();
  void push(const Request& r);
  /// Reassemble element i (bounds unchecked, like vector::operator[]).
  Request get(std::size_t i) const;
};

/// Batched pre-generation over any RequestStream: draws requests one
/// window at a time while buffering a single lookahead request, so the
/// sequence of next() calls — and therefore every RNG draw of a synthetic
/// generator — is identical to pulling the stream directly.  This is what
/// lets the sharded simulation consume arrivals in windows without
/// perturbing the workload.
class WindowedStream {
public:
  explicit WindowedStream(RequestStream& inner);

  /// Append every request with arrival < `t_end` (at most `max_count`)
  /// onto `out`.  Returns the number appended; 0 means the window is empty
  /// or the stream is exhausted.
  std::size_t fill(double t_end, std::size_t max_count, RequestBlock& out);

  /// True once the underlying stream has returned nullopt.
  bool exhausted() const { return !pending_.has_value(); }
  /// Arrival time of the buffered lookahead request (exhausted() must be
  /// false).
  double next_arrival() const { return pending_->arrival; }

private:
  RequestStream& inner_;
  std::optional<Request> pending_;
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
