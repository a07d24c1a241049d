// random_alloc.h — the paper's comparison baseline: random placement.
//
// §4: "for the purpose of comparison of power consumption and response
// times, we also generated a mapping table that randomly maps files among
// all disks".  Figures 2–4 spread files over all 100 disks; §5.1 constrains
// random placement to 96 disks ("the same number of disks as Pack_Disks").
//
// Placement draws a uniformly random disk and retries while the file does
// not fit by *size* (random placement knows nothing about load, like the
// paper's baseline); after a bounded number of rejections it falls back to
// the emptiest disk.  Throws if the instance simply cannot fit.
#pragma once

#include <cstdint>

#include "core/allocator.h"

namespace spindown::core {

class RandomAllocator final : public Allocator {
public:
  /// `num_disks` fixed in advance; `seed` makes allocation deterministic
  /// (each allocate() call restarts the generator).
  RandomAllocator(std::uint32_t num_disks, std::uint64_t seed);

  Assignment allocate(std::span<const Item> items) override;

  std::uint32_t num_disks() const { return num_disks_; }

private:
  std::uint32_t num_disks_;
  std::uint64_t seed_;
};

} // namespace spindown::core
