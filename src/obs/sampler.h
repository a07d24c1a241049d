// sampler.h — sim-time metrics sampling into the trace stream.
//
// A MetricsSampler schedules itself at t = k * interval (k = 1, 2, ...,
// strictly below the horizon) on the calendar that owns its disks and emits
// two gauges per disk per tick:
//
//   kMetricQueueDepth  value = scheduler queue length, aux = in-service
//   kMetricPowerState  value = power-state index,      aux = served total
//
// Determinism: before reading a disk the sampler only settles it (applies
// the lazy transitions already due, see disk.h), which cannot perturb
// physical results — and tick timestamps are computed as k * interval
// (never accumulated), so the sampled timeline is identical whichever
// shard's calendar the disk lives on.  The tick events it adds to the
// calendar are subtracted from the run's executed-event count by the
// callers, so `RunResult::events` matches the untraced run exactly.
#pragma once

#include <cstdint>
#include <vector>

#include "des/simulation.h"
#include "obs/trace.h"

namespace spindown::disk {
class Disk;
}

namespace spindown::obs {

class MetricsSampler {
public:
  /// `trace` may be null or lack kMetric; start() is then a no-op.
  MetricsSampler(des::Simulation& sim, double interval_s, double horizon_s,
                 TraceBuffer* trace)
      : sim_(sim), interval_(interval_s), horizon_(horizon_s), trace_(trace) {}

  MetricsSampler(const MetricsSampler&) = delete;
  MetricsSampler& operator=(const MetricsSampler&) = delete;

  /// Register a disk to sample.  All registrations must precede start().
  void add_disk(disk::Disk* d) { disks_.push_back(d); }

  /// Schedule the first tick (at `interval`, if below the horizon).
  void start();

  /// Ticks executed so far — the number of calendar events this sampler
  /// consumed, for the callers' executed-count correction.
  std::uint64_t ticks() const { return ticks_; }

private:
  void tick();

  des::Simulation& sim_;
  double interval_;
  double horizon_;
  TraceBuffer* trace_;
  std::vector<disk::Disk*> disks_;
  std::uint64_t next_k_ = 1;
  std::uint64_t ticks_ = 0;
};

} // namespace spindown::obs
