// sea.h — SEA-inspired striping baseline (Xie [17], §2 related work).
//
// SEA ("striping-based energy-aware" placement) divides a RAID farm into a
// hot zone and a cold zone and stripes popular data across the hot zone so
// a few always-busy disks absorb most traffic while the cold zone sleeps.
// The paper's workload generator follows SEA's request patterns (§4), which
// makes it the natural second baseline next to random placement.
//
// This is a file-granular adaptation (our simulator serves whole files, not
// blocks):
//   * items are ranked by load; the smallest prefix carrying
//     `hot_load_share` of the total load forms the hot set;
//   * hot files are striped round-robin across a hot zone sized to carry
//     them (by both size and load), spreading consecutive hot files over
//     different spindles — SEA's bandwidth idea at file granularity;
//   * cold files are first-fit packed (by size) onto the cold zone, which
//     is expected to spend most time in standby.
//
// The published SEA's block striping inside RAID groups and its redundancy
// are left out (whole files, one copy); the preserved essence is the
// hot/cold zoning + striping of the hot set.
#pragma once

#include "core/allocator.h"

namespace spindown::core {

class SeaAllocator final : public Allocator {
public:
  /// `hot_load_share` in (0, 1]: fraction of the total load the hot zone
  /// must absorb (0.8 is SEA's spirit: most traffic on few disks).
  explicit SeaAllocator(double hot_load_share = 0.8);

  Assignment allocate(std::span<const Item> items) override;

  /// After allocate(): disks [0, hot_disks) form the hot zone.
  std::uint32_t hot_disks() const { return hot_disks_; }

private:
  double hot_load_share_;
  std::uint32_t hot_disks_ = 0;
};

} // namespace spindown::core
