#include "core/pack_segregated.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "core/pack_disks.h"

namespace spindown::core {

SegregatedPackDisks::SegregatedPackDisks(std::size_t classes)
    : classes_(classes) {
  if (classes == 0) {
    throw std::invalid_argument{"SegregatedPackDisks: need >= 1 class"};
  }
}

Assignment SegregatedPackDisks::allocate(std::span<const Item> items) {
  validate_instance(items);
  Assignment out;
  out.disk_of.assign(items.size(), 0);
  if (items.empty()) return out;

  // Quantile boundaries over the s coordinate (stable order for ties).
  std::vector<std::uint32_t> order(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    order[i] = static_cast<std::uint32_t>(i);
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     if (items[a].s != items[b].s) {
                       return items[a].s < items[b].s;
                     }
                     return items[a].index < items[b].index;
                   });

  const std::size_t k = std::min(classes_, items.size());
  PackDisks pack;
  std::uint32_t next_disk = 0;
  for (std::size_t c = 0; c < k; ++c) {
    const std::size_t lo = c * items.size() / k;
    const std::size_t hi = (c + 1) * items.size() / k;
    if (lo == hi) continue;
    // Re-index the class so Pack_Disks sees a dense instance, then map the
    // class-local assignment back through the class member list.
    std::vector<Item> class_items;
    class_items.reserve(hi - lo);
    for (std::size_t j = lo; j < hi; ++j) {
      Item it = items[order[j]];
      it.index = static_cast<std::uint32_t>(class_items.size());
      class_items.push_back(it);
    }
    const auto class_assignment = pack.allocate(class_items);
    for (std::size_t j = lo; j < hi; ++j) {
      out.disk_of[items[order[j]].index] =
          next_disk + class_assignment.disk_of[j - lo];
    }
    next_disk += class_assignment.disk_count;
  }
  out.disk_count = next_disk;
  return out;
}

} // namespace spindown::core
