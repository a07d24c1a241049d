// sampler.h — sim-time metrics sampling into the trace stream.
//
// A MetricsSampler emits two gauges per disk at every tick t = k * interval
// (k = 1, 2, ..., strictly below the horizon):
//
//   kMetricQueueDepth  value = scheduler queue length, aux = in-service
//   kMetricPowerState  value = power-state index,      aux = served total
//
// The shard that owns the disks drives it: sample_until(t) emits every
// tick not yet emitted that lies at or before t, and the shard calls it
// before each submission and before its horizon snapshot.  Before reading
// a disk at tick τ the sampler settles it to τ (disk.h), so a gauge reads
// the disk after every transition at or before τ, completions and spin-up
// ends included; settling cannot perturb physical results.  Tick
// timestamps are computed as k * interval (never accumulated), so the
// sampled timeline is identical whichever shard the disk lives on.  Ticks
// are observation only: they are not events and never enter
// `RunResult::events`.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/trace.h"

namespace spindown::disk {
class Disk;
}

namespace spindown::obs {

class MetricsSampler {
public:
  /// `trace` may be null or lack kMetric; sample_until() is then a no-op.
  MetricsSampler(double interval_s, double horizon_s, TraceBuffer* trace)
      : interval_(interval_s), horizon_(horizon_s), trace_(trace) {}

  MetricsSampler(const MetricsSampler&) = delete;
  MetricsSampler& operator=(const MetricsSampler&) = delete;

  /// Register a disk to sample.  All registrations must precede the first
  /// sample_until().
  void add_disk(disk::Disk* d) { disks_.push_back(d); }

  /// Emit every remaining tick at or before `t` (and below the horizon).
  void sample_until(double t);

private:
  double interval_;
  double horizon_;
  TraceBuffer* trace_;
  std::vector<disk::Disk*> disks_;
  std::uint64_t next_k_ = 1;
};

} // namespace spindown::obs
