#include "obs/sampler.h"

#include "disk/disk.h"

namespace spindown::obs {

void MetricsSampler::start() {
  if (trace_ == nullptr || !trace_->wants(Kind::kMetric)) return;
  if (interval_ <= 0.0 || horizon_ <= 0.0 || disks_.empty()) return;
  const double first = interval_ * static_cast<double>(next_k_);
  if (first >= horizon_) return; // ticks stay strictly inside the horizon
  sim_.schedule_at(first, [this] { tick(); });
}

void MetricsSampler::tick() {
  ++ticks_;
  const double t = sim_.now();
  for (disk::Disk* d : disks_) {
    d->settle(t); // its due transitions precede the gauges on its track
    trace_->emit(Kind::kMetric, kMetricQueueDepth, t, d->id(), 0,
                 static_cast<double>(d->queue_length()),
                 static_cast<double>(d->in_service_count()));
    trace_->emit(Kind::kMetric, kMetricPowerState, t, d->id(), 0,
                 static_cast<double>(static_cast<unsigned>(d->state())),
                 static_cast<double>(d->served_count()));
  }
  ++next_k_;
  const double next = interval_ * static_cast<double>(next_k_);
  if (next < horizon_) sim_.schedule_at(next, [this] { tick(); });
}

} // namespace spindown::obs
