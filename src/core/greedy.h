// greedy.h — classic bin-packing heuristics lifted to two dimensions.
//
// Baselines beyond the paper's random placement, used by the bound-quality
// bench and as practical comparators: an item fits a disk when *both*
// coordinate sums stay <= 1.
//
//   * FirstFit          — first open disk that fits, in arrival order.
//   * BestFit           — feasible disk with the least remaining slack
//                         (sum of both dimensions' leftovers) after packing.
//   * FirstFitDecreasing— FirstFit after sorting by max(s, l) descending,
//                         the standard FFD lift.
#pragma once

#include "core/allocator.h"

namespace spindown::core {

class FirstFit final : public Allocator {
public:
  Assignment allocate(std::span<const Item> items) override;
};

class BestFit final : public Allocator {
public:
  Assignment allocate(std::span<const Item> items) override;
};

class FirstFitDecreasing final : public Allocator {
public:
  Assignment allocate(std::span<const Item> items) override;
};

} // namespace spindown::core
