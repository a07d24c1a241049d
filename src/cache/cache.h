// cache.h — byte-capacity whole-file caches in front of the disk farm.
//
// §5.1 places a 16 GB LRU cache before the file dispatcher ("RND+LRU",
// "Pack_Disk4+LRU" in Figures 5/6) and reports a 5.6% hit ratio on the NERSC
// workload.  The conclusions list cache policy as future work, so FIFO and
// LFU variants are provided for the ablation bench.
//
// Semantics: whole files only (the paper's requests fetch whole files); a
// file larger than the capacity is never admitted; admission happens on
// miss (demand caching), evicting per policy until the file fits.
//
// Memory model (LRU/FIFO, recency.h): 4 B per catalog file for the
// FileId -> slot index plus 24 B per resident file.  The index is a plain
// vector sized to the largest id seen, so FileId must be dense — as it is
// for FileCatalog, whose ids are its by_id() indices.
//
// sys::CacheSpec names every cache and builds it.
#pragma once

#include <cstdint>

#include "util/units.h"
#include "workload/catalog.h"

namespace spindown::cache {

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;

  std::uint64_t accesses() const { return hits + misses; }
  double hit_ratio() const {
    return accesses() == 0 ? 0.0
                           : static_cast<double>(hits) /
                                 static_cast<double>(accesses());
  }
};

class FileCache {
public:
  virtual ~FileCache() = default;

  /// Record an access: returns true on hit.  On miss the file is admitted
  /// (unless larger than capacity), evicting victims per policy.
  virtual bool access(workload::FileId id, util::Bytes size) = 0;

  /// Presence check without side effects.
  virtual bool contains(workload::FileId id) const = 0;

  /// Hint that access(id, ...) comes soon; never changes a result.
  virtual void prefetch(workload::FileId /*id*/) const {}

  virtual util::Bytes capacity() const = 0;
  virtual util::Bytes used() const = 0;
  virtual std::size_t entries() const = 0;

  virtual const CacheStats& stats() const = 0;
};

} // namespace spindown::cache
