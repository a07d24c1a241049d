// physical_digest.h — FNV-1a fingerprints of a RunResult's physical fields
// and of a canonical trace stream.
//
// Tests pin these hex strings to keep an independent reference for a
// scenario's output: a value captured once from a known-good engine, not
// recomputed by the code under test.  `events` (an engine statistic) is
// deliberately left out of the result digest; every other field, per-disk
// record and histogram bin is in it.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "obs/trace.h"
#include "sys/system.h"

namespace spindown::test_support {

class Fnv1a {
public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffU;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  void add(const stats::Welford& w) {
    add(w.count());
    add(w.mean());
    add(w.variance());
    add(w.min());
    add(w.max());
    add(w.sum());
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

inline std::string physical_digest(const sys::RunResult& r) {
  Fnv1a d;
  const auto& p = r.power;
  d.add(p.horizon_s);
  d.add(p.energy);
  d.add(p.average_power);
  d.add(p.always_on_energy);
  d.add(p.saving_vs_always_on);
  d.add(p.spin_ups);
  d.add(p.spin_downs);
  for (const double t : p.state_time) d.add(t);
  d.add(r.response.moments());
  const auto& hist = r.response.histogram();
  d.add(hist.total());
  d.add(hist.underflow());
  d.add(hist.overflow());
  for (std::size_t i = 0; i < hist.bins(); ++i) d.add(hist.bin_count(i));
  d.add(r.hits_response);
  d.add(r.cache.hits);
  d.add(r.cache.misses);
  d.add(r.cache.evictions);
  d.add(r.requests);
  d.add(r.completed_at_horizon);
  d.add(r.in_flight_at_horizon);
  for (const auto& m : r.per_disk) {
    d.add(std::uint64_t{m.disk_id});
    for (const double t : m.state_time) d.add(t);
    d.add(m.spin_ups);
    d.add(m.spin_downs);
    d.add(m.served);
    d.add(m.bytes_served);
    d.add(m.queued);
    d.add(m.in_service);
    d.add(m.destage_served);
    d.add(m.destage_pending);
    d.add(m.positionings);
    d.add(m.idle_periods.total());
    for (std::size_t i = 0; i < m.idle_periods.bins(); ++i) {
      d.add(m.idle_periods.bin_count(i));
    }
    d.add(m.response);
    d.add(m.energy_j);
    d.add(m.always_on_j);
  }
  return d.hex();
}

/// Fingerprint of the canonical sim-time stream (RunTrace::events, in
/// order) plus its horizon; the wall-clock profile stream is excluded.
inline std::string trace_digest(const obs::RunTrace& trace) {
  Fnv1a d;
  d.add(trace.horizon_s);
  d.add(std::uint64_t{trace.events.size()});
  for (const auto& e : trace.events) {
    d.add(e.t);
    d.add(e.id);
    d.add(e.value);
    d.add(e.aux);
    d.add((std::uint64_t{e.track} << 16) |
          (std::uint64_t{static_cast<std::uint8_t>(e.kind)} << 8) | e.code);
  }
  return d.hex();
}

} // namespace spindown::test_support
