// trace.h — deterministic trace events and per-shard buffers.
//
// The observability layer records three families of *sim-time* events
// (request-lifecycle spans, power-state transitions, policy decisions), one
// family of sampled metrics, and one family of *wall-clock* pipeline
// profiling samples.  The sim-time families obey the same determinism
// contract as RunResult: the canonical event stream is bit-identical at any
// shard count, because
//
//   * every track (one per disk, plus one router track) is written by
//     exactly one single-threaded owner, in sim-time order, and
//   * the canonical merge concatenates the per-shard buffers and stable-
//     sorts by track rank only (router first, then disks ascending), so
//     per-track emission order — which is shard-invariant — is preserved.
//
// Wall-clock profiling samples are kept in a separate stream (RunTrace::
// profile) and are explicitly excluded from the identity contract.
//
// The disabled path is a branch on a null pointer: components hold a
// `TraceBuffer*` that is nullptr unless the scenario enabled tracing, so
// `obs=off` adds no allocations and no measurable work to the hot path.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

namespace spindown::obs {

/// Event families.  Each can be enabled independently through the
/// ObsSpec/`obs=` scenario key; TraceBuffer::wants() tests the bit.
enum class Kind : std::uint8_t {
  kSpan = 0,    ///< request lifecycle edge
  kPower = 1,   ///< Disk::enter() power-state transition
  kPolicy = 2,  ///< spin-down policy decision
  kMetric = 3,  ///< sampled gauge (queue depth, power state)
  kProfile = 4, ///< wall-clock pipeline stage timer (non-deterministic)
};
inline constexpr std::size_t kKindCount = 5;

constexpr std::uint32_t kind_bit(Kind k) {
  return 1u << static_cast<unsigned>(k);
}

/// Span edge codes (TraceEvent::code when kind == kSpan).
inline constexpr std::uint8_t kSpanSubmit = 0;    ///< arrived at the disk
inline constexpr std::uint8_t kSpanEnqueue = 1;   ///< entered the scheduler
inline constexpr std::uint8_t kSpanPosition = 2;  ///< batch began positioning
inline constexpr std::uint8_t kSpanTransfer = 3;  ///< transfer started
inline constexpr std::uint8_t kSpanComplete = 4;  ///< completion delivered
inline constexpr std::uint8_t kSpanCacheHit = 5;  ///< absorbed by the cache
inline constexpr std::uint8_t kSpanCacheMiss = 6; ///< forwarded to a disk
inline constexpr std::uint8_t kSpanRedirect = 7; ///< read routed to a
                                                 ///< replica (value=chosen
                                                 ///< disk, aux=primary)

/// Policy decision codes (kind == kPolicy).  Codes 0-3 are per-disk
/// spin-down decisions on the disk's own track; 4-5 are fleet-orchestration
/// decisions on the router track (src/orch/).
inline constexpr std::uint8_t kPolicyTimerArmed = 0;  ///< finite timeout
inline constexpr std::uint8_t kPolicyStayIdle = 1;    ///< nullopt: no timer
inline constexpr std::uint8_t kPolicySpinDownNow = 2; ///< timeout <= 0
inline constexpr std::uint8_t kPolicyThresholdFired = 3; ///< timer expired
inline constexpr std::uint8_t kPolicyOffload = 4; ///< write absorbed by a log
                                                  ///< disk (value=log disk,
                                                  ///< aux=sleeping target)
inline constexpr std::uint8_t kPolicyDestage = 5; ///< buffered writes flushed
                                                  ///< to their home disk
                                                  ///< (value=target disk,
                                                  ///< aux=batch size)

/// Metric gauge codes (kind == kMetric).
inline constexpr std::uint8_t kMetricQueueDepth = 0; ///< value=queued,
                                                     ///< aux=in_service
inline constexpr std::uint8_t kMetricPowerState = 1; ///< value=state index,
                                                     ///< aux=served total

/// Pipeline stage codes (kind == kProfile; wall-clock).
inline constexpr std::uint8_t kProfRouterFill = 0;   ///< router routes a chunk
inline constexpr std::uint8_t kProfRingWait = 1;     ///< worker waits on ring
inline constexpr std::uint8_t kProfWorkerReplay = 2; ///< worker replays batch
inline constexpr std::uint8_t kProfFeederFill = 3;   ///< feeder fills a chunk

/// Track id for events not owned by a disk (router decisions).
/// Ranked before disk 0 in the canonical order, mirroring partials[0].
inline constexpr std::uint32_t kRouterTrack = 0xffffffffu;

/// Profile lane of the fleet pipeline's feeder thread (arrival generation
/// and the front cache).  kProfile samples only: the feeder never writes
/// the canonical sim-time stream.
inline constexpr std::uint32_t kFeederTrack = 0xfffffffdu;

/// One trace record.  40 bytes, trivially copyable; the exact-field equality
/// is what the shard bit-identity tests compare.
struct TraceEvent {
  double t = 0.0;         ///< sim-time seconds (profile: wall-clock offset)
  std::uint64_t id = 0;   ///< request id / chunk index / 0
  double value = 0.0;     ///< primary payload (code-specific)
  double aux = 0.0;       ///< secondary payload (code-specific)
  std::uint32_t track = 0;
  Kind kind = Kind::kSpan;
  std::uint8_t code = 0;

  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

/// Single-writer event buffer.  Each shard worker (and the router)
/// appends to its own buffer, so the hot path takes no lock; the
/// canonical merge happens once, after the run.
class TraceBuffer {
public:
  explicit TraceBuffer(std::uint32_t kind_mask) : mask_(kind_mask) {}

  /// Cheap filter the emit sites test before building an event.
  bool wants(Kind k) const { return (mask_ & kind_bit(k)) != 0; }
  std::uint32_t mask() const { return mask_; }

  void emit(Kind kind, std::uint8_t code, double t, std::uint32_t track,
            std::uint64_t id, double value = 0.0, double aux = 0.0) {
    events_.push_back(TraceEvent{t, id, value, aux, track, kind, code});
  }

  /// Pre-size the buffer so steady-state tracing stays allocation-free
  /// (the alloc-count regression traces into a reserved buffer).
  void reserve(std::size_t n) { events_.reserve(n); }

  std::size_t size() const { return events_.size(); }
  const std::vector<TraceEvent>& events() const { return events_; }
  std::vector<TraceEvent>& events() { return events_; }

private:
  std::uint32_t mask_;
  std::vector<TraceEvent> events_;
};

/// A whole run's trace.  `events` is the canonical sim-time stream
/// (router track first, then disks in id order; per-track order is
/// emission order, i.e. non-decreasing sim time).  `profile` carries the
/// wall-clock pipeline samples and is excluded from the determinism
/// contract; `shards` describes the pipeline shape (one worker thread per
/// shard) and is only meaningful when `profile` is non-empty.
struct RunTrace {
  std::vector<TraceEvent> events;
  std::vector<TraceEvent> profile;
  double horizon_s = 0.0;
  std::uint32_t shards = 1;
};

/// Canonical-order sort key: the router track ranks before every disk.
inline std::uint64_t track_rank(std::uint32_t track) {
  return track == kRouterTrack ? 0 : std::uint64_t{track} + 1;
}

/// Append `buffers`' events to `out` in canonical order.  Stable on the
/// concatenation, sorting by track rank only — each track lives in exactly
/// one buffer, so per-track emission order survives regardless of how disks
/// were grouped into shards.
void append_canonical(std::vector<TraceEvent>& out,
                      std::span<TraceBuffer* const> buffers);

/// Name tables for the exporters and JSONL stream.
std::string_view kind_name(Kind k);
std::string_view code_name(Kind k, std::uint8_t code);

} // namespace spindown::obs
