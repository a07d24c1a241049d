// maid.h — a MAID-style baseline (Colarelli & Grunwald [4], §2 related work).
//
// MAID (Massive Array of Idle Disks) keeps a small set of always-spinning
// *cache disks* holding copies of the hottest data, while the bulk of the
// farm sleeps.  The paper positions Pack_Disks as complementary to MAID;
// this module implements the MAID placement so the two can be compared on
// identical workloads (bench_future_work):
//
//   * the hottest files, in popularity order, are replicated onto
//     `cache_disks` always-on disks until their space is exhausted
//     (round-robin by remaining capacity);
//   * every file also has a home on the data disks (filled sequentially,
//     first-fit in id order — MAID does not reorganize data);
//   * reads of cached files are served by their cache disk; everything else
//     goes to its data disk.
//
// The result plugs straight into ExperimentConfig: a mapping plus a per-disk
// policy vector (cache disks never spin down, data disks use the paper's
// break-even threshold).
#pragma once

#include <cstdint>
#include <vector>

#include "core/item.h"
#include "workload/catalog.h"

namespace spindown::core {

struct MaidPlacement {
  /// file id -> serving disk (cache disk for cached files, home otherwise).
  std::vector<std::uint32_t> mapping;
  std::uint32_t cache_disks = 0; ///< disks [0, cache_disks) are the cache
  std::uint32_t total_disks = 0;
  std::vector<workload::FileId> cached_files;
  /// Fraction of the request stream absorbed by the cache disks.
  double cached_popularity = 0.0;
};

/// Build a MAID placement.  `disk_capacity` bounds both cache and data
/// disks; throws if the data cannot fit on `data_disks`.
MaidPlacement build_maid(const workload::FileCatalog& catalog,
                         std::uint32_t cache_disks, std::uint32_t data_disks,
                         util::Bytes disk_capacity);

} // namespace spindown::core
