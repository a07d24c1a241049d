#include "obs/sampler.h"

#include "disk/disk.h"

namespace spindown::obs {

void MetricsSampler::sample_until(double t) {
  if (trace_ == nullptr || !trace_->wants(Kind::kMetric)) return;
  if (!(interval_ > 0.0) || disks_.empty()) return;
  for (;;) {
    const double tick = interval_ * static_cast<double>(next_k_);
    if (tick > t || tick >= horizon_) return; // strictly inside the horizon
    for (disk::Disk* d : disks_) {
      d->settle(tick); // its due transitions precede the gauges on its track
      trace_->emit(Kind::kMetric, kMetricQueueDepth, tick, d->id(), 0,
                   static_cast<double>(d->queue_length()),
                   static_cast<double>(d->in_service_count()));
      trace_->emit(Kind::kMetric, kMetricPowerState, tick, d->id(), 0,
                   static_cast<double>(static_cast<unsigned>(d->state(tick))),
                   static_cast<double>(d->served_count()));
    }
    ++next_k_;
  }
}

} // namespace spindown::obs
