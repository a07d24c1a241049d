#include "obs/trace.h"

#include <algorithm>

#include "disk/power.h"

namespace spindown::obs {

void append_canonical(std::vector<TraceEvent>& out,
                      std::span<TraceBuffer* const> buffers) {
  std::size_t total = 0;
  for (const TraceBuffer* b : buffers) {
    if (b != nullptr) total += b->size();
  }
  const std::size_t base = out.size();
  out.reserve(base + total);
  for (const TraceBuffer* b : buffers) {
    if (b == nullptr) continue;
    out.insert(out.end(), b->events().begin(), b->events().end());
  }
  std::stable_sort(out.begin() + static_cast<std::ptrdiff_t>(base), out.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return track_rank(a.track) < track_rank(b.track);
                   });
}

std::string_view kind_name(Kind k) {
  switch (k) {
    case Kind::kSpan: return "span";
    case Kind::kPower: return "power";
    case Kind::kPolicy: return "policy";
    case Kind::kMetric: return "metric";
    case Kind::kProfile: return "profile";
  }
  return "unknown";
}

std::string_view code_name(Kind k, std::uint8_t code) {
  switch (k) {
    case Kind::kSpan:
      switch (code) {
        case kSpanSubmit: return "submit";
        case kSpanEnqueue: return "enqueue";
        case kSpanPosition: return "position";
        case kSpanTransfer: return "transfer";
        case kSpanComplete: return "complete";
        case kSpanCacheHit: return "cache_hit";
        case kSpanCacheMiss: return "cache_miss";
        case kSpanRedirect: return "redirect";
        default: break;
      }
      break;
    case Kind::kPower:
      if (code < disk::kPowerStateCount) {
        return to_string(static_cast<disk::PowerState>(code));
      }
      break;
    case Kind::kPolicy:
      switch (code) {
        case kPolicyTimerArmed: return "timer_armed";
        case kPolicyStayIdle: return "stay_idle";
        case kPolicySpinDownNow: return "spin_down_now";
        case kPolicyThresholdFired: return "threshold_fired";
        case kPolicyOffload: return "offload";
        case kPolicyDestage: return "destage";
        default: break;
      }
      break;
    case Kind::kMetric:
      switch (code) {
        case kMetricQueueDepth: return "queue_depth";
        case kMetricPowerState: return "power_state";
        default: break;
      }
      break;
    case Kind::kProfile:
      switch (code) {
        case kProfRouterFill: return "router_fill";
        case kProfRingWait: return "ring_wait";
        case kProfWorkerReplay: return "worker_replay";
        case kProfFeederFill: return "feeder_fill";
        default: break;
      }
      break;
  }
  return "unknown";
}

} // namespace spindown::obs
