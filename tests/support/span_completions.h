// span_completions.h — per-request completion records read from a trace.
//
// A disk reports each completion as a kSpanComplete event on its own
// track; tests that check per-request times attach a kSpan buffer and read
// those events back.
#pragma once

#include <vector>

#include "obs/trace.h"

namespace spindown::test_support {

/// The kSpanComplete events of `trace`, in emission order.  Each carries
/// the completion time as `t`, the request id as `id`, the disk as
/// `track`, the response time as `value` and the wait (arrival to the
/// start of the request's batch) as `aux`.
inline std::vector<obs::TraceEvent> completions(
    const obs::TraceBuffer& trace) {
  std::vector<obs::TraceEvent> out;
  for (const auto& e : trace.events()) {
    if (e.kind == obs::Kind::kSpan && e.code == obs::kSpanComplete) {
      out.push_back(e);
    }
  }
  return out;
}

} // namespace spindown::test_support
