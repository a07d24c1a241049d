#include "core/sea.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace spindown::core {

SeaAllocator::SeaAllocator(double hot_load_share)
    : hot_load_share_(hot_load_share) {
  if (hot_load_share <= 0.0 || hot_load_share > 1.0) {
    throw std::invalid_argument{
        "SeaAllocator: hot_load_share must be in (0,1]"};
  }
}

Assignment SeaAllocator::allocate(std::span<const Item> items) {
  validate_instance(items);
  Assignment out;
  out.disk_of.assign(items.size(), 0);
  hot_disks_ = 0;
  if (items.empty()) return out;

  // Rank by load, hottest first (ties toward the smaller index).
  std::vector<std::uint32_t> order(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    order[i] = static_cast<std::uint32_t>(i);
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     if (items[a].l != items[b].l) {
                       return items[a].l > items[b].l;
                     }
                     return a < b;
                   });

  double total_load = 0.0;
  for (const auto& it : items) total_load += it.l;

  // Hot prefix: smallest set of hottest files carrying hot_load_share.
  std::size_t hot_count = 0;
  double hot_s = 0.0, hot_l = 0.0;
  for (; hot_count < order.size(); ++hot_count) {
    if (total_load > 0.0 && hot_l >= hot_load_share_ * total_load) break;
    hot_s += items[order[hot_count]].s;
    hot_l += items[order[hot_count]].l;
  }
  if (total_load <= 0.0) hot_count = 0; // no traffic: everything is cold

  // Hot zone size: enough disks for both dimensions of the hot set.
  auto zone_size = [](double s_sum, double l_sum) {
    return static_cast<std::uint32_t>(
        std::max(1.0, std::ceil(std::max(s_sum, l_sum))));
  };

  struct Zone {
    std::vector<double> s;
    std::vector<double> l;
    void grow() {
      s.push_back(0.0);
      l.push_back(0.0);
    }
    std::size_t size() const { return s.size(); }
    bool fits(std::size_t d, const Item& it) const {
      return s[d] + it.s <= 1.0 && l[d] + it.l <= 1.0;
    }
    void add(std::size_t d, const Item& it) {
      s[d] += it.s;
      l[d] += it.l;
    }
  };

  // Stripe the hot set round-robin; a disk that cannot take the file passes
  // it to the next (growing the zone when a full cycle fails).
  Zone hot;
  if (hot_count > 0) {
    for (std::uint32_t d = 0; d < zone_size(hot_s, hot_l); ++d) hot.grow();
    std::size_t cursor = 0;
    for (std::size_t i = 0; i < hot_count; ++i) {
      const Item& it = items[order[i]];
      bool placed = false;
      for (std::size_t attempt = 0; attempt < hot.size(); ++attempt) {
        const std::size_t d = (cursor + attempt) % hot.size();
        if (hot.fits(d, it)) {
          hot.add(d, it);
          out.disk_of[it.index] = static_cast<std::uint32_t>(d);
          cursor = d + 1;
          placed = true;
          break;
        }
      }
      if (!placed) {
        hot.grow();
        const std::size_t d = hot.size() - 1;
        hot.add(d, it);
        out.disk_of[it.index] = static_cast<std::uint32_t>(d);
        cursor = 0;
      }
    }
  }
  hot_disks_ = static_cast<std::uint32_t>(hot.size());
  if (hot_count == 0) hot_disks_ = 0;

  // Cold zone: first-fit by both dimensions (loads are tiny by selection).
  Zone cold;
  for (std::size_t i = hot_count; i < order.size(); ++i) {
    const Item& it = items[order[i]];
    bool placed = false;
    for (std::size_t d = 0; d < cold.size(); ++d) {
      if (cold.fits(d, it)) {
        cold.add(d, it);
        out.disk_of[it.index] =
            hot_disks_ + static_cast<std::uint32_t>(d);
        placed = true;
        break;
      }
    }
    if (!placed) {
      cold.grow();
      cold.add(cold.size() - 1, it);
      out.disk_of[it.index] =
          hot_disks_ + static_cast<std::uint32_t>(cold.size() - 1);
    }
  }
  out.disk_count = hot_disks_ + static_cast<std::uint32_t>(cold.size());
  return out;
}

} // namespace spindown::core
