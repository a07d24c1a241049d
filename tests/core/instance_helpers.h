// instance_helpers.h — shared random-instance generators for core tests.
#pragma once

#include <cmath>
#include <vector>

#include "core/item.h"
#include "util/rng.h"

namespace spindown::core::testing {

/// Uniform random instance: coordinates in (0, max_coord].
inline std::vector<Item> random_instance(std::size_t n, double max_coord,
                                         std::uint64_t seed) {
  util::Rng rng{seed};
  std::vector<Item> items(n);
  for (std::size_t i = 0; i < n; ++i) {
    items[i].index = static_cast<std::uint32_t>(i);
    items[i].s = rng.uniform(1e-6, max_coord);
    items[i].l = rng.uniform(1e-6, max_coord);
  }
  return items;
}

/// Skewed instance resembling the paper's workload: sizes and loads drawn
/// from power laws, loosely anti-correlated.
inline std::vector<Item> skewed_instance(std::size_t n, double max_coord,
                                         std::uint64_t seed) {
  util::Rng rng{seed};
  std::vector<Item> items(n);
  for (std::size_t i = 0; i < n; ++i) {
    items[i].index = static_cast<std::uint32_t>(i);
    const double u = rng.uniform01();
    items[i].s = max_coord * std::pow(u, 2.0) + 1e-6;
    items[i].l = max_coord * std::pow(1.0 - u, 2.0) * rng.uniform01() + 1e-6;
  }
  return items;
}

/// One generated instance: n items with coordinates up to max_coord, from
/// skewed_instance or random_instance.  gtest names each case by printing
/// its raw bytes, so the tail after `skewed` is an explicit, zeroed member:
/// compiler padding there would be uninitialized and change the names
/// from one build to the next.
struct InstanceCase {
  std::size_t n;
  double max_coord;
  std::uint64_t seed;
  bool skewed;
  char zero_tail[7]{};

  std::vector<Item> items() const {
    return skewed ? skewed_instance(n, max_coord, seed)
                  : random_instance(n, max_coord, seed);
  }
};
static_assert(sizeof(InstanceCase) == 32, "InstanceCase has no padding");

} // namespace spindown::core::testing
