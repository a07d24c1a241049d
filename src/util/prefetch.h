// prefetch.h — a read hint for table lookups that are known ahead of use.
//
// The front end resolves a whole feeder chunk in passes: the indices a
// chunk will look up are known before the first lookup, so each pass asks
// for the line `kPrefetchAhead` entries ahead of the one it reads.  A hint
// never faults and never changes a result.
#pragma once

#include <cstddef>

namespace spindown::util {

/// Entries between a prefetch and the read it prepares: far enough ahead
/// to cover a DRAM miss at a few nanoseconds per entry.
inline constexpr std::size_t kPrefetchAhead = 16;

/// Ask for the cache line holding `p`, for reading.
inline void prefetch(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, 0, 3);
#else
  (void)p;
#endif
}

} // namespace spindown::util
