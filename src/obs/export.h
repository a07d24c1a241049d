// export.h — trace serialization: Chrome trace_event JSON and JSONL.
//
// Both writers are deterministic functions of the RunTrace: fixed field
// order, fixed number formatting (%.17g round-trips every double), no
// wall-clock or environment input.  That is what makes the shard-count
// byte-identity check possible at the file level: equal RunTrace in, equal
// bytes out.
//
// Chrome format (load in Perfetto or chrome://tracing):
//   * pid 0 "sim" — one thread (track) per disk plus a "router" track;
//     spans are async b/e pairs keyed by request id, lifecycle edges and
//     policy decisions are thread-scoped instants, power states are "X"
//     slices whose duration runs to the next transition (or the horizon).
//   * counter tracks (queued / in_flight / spun_down) aggregated from the
//     sampled metrics across the farm.
//   * pid 1 "pipeline" — wall-clock stage slices (router fill, ring wait,
//     worker replay), one thread per lane; present only when profiling was
//     enabled, so sim-time-only traces stay shard-invariant byte-for-byte.
//
// JSONL format: one meta line, then one JSON object per event in canonical
// order (profile events last, marked "wall": true).
#pragma once

#include <iosfwd>
#include <string>

#include "obs/trace.h"

namespace spindown::obs {

void write_chrome_trace(const RunTrace& trace, std::ostream& os);
void write_jsonl_trace(const RunTrace& trace, std::ostream& os);

/// Write `trace` to `path`; ".jsonl" selects JSONL, anything else Chrome
/// JSON.  Returns false if the file cannot be written.
bool write_trace_file(const std::string& path, const RunTrace& trace);

} // namespace spindown::obs
