#include "core/normalize.h"

#include <stdexcept>

namespace spindown::core {

double LoadModel::mu(util::Bytes bytes) const {
  if (include_positioning) return disk.service_time(bytes);
  return disk.transfer_time(bytes);
}

std::vector<Item> normalize(const workload::FileCatalog& catalog,
                            const LoadModel& model) {
  if (model.rate <= 0.0) {
    throw std::invalid_argument{"LoadModel: rate must be > 0"};
  }
  if (model.load_fraction <= 0.0 || model.load_fraction > 1.0) {
    throw std::invalid_argument{"LoadModel: load_fraction must be in (0, 1]"};
  }
  const auto capacity = static_cast<double>(model.disk.capacity);

  std::vector<Item> items;
  items.reserve(catalog.size());
  for (const auto& f : catalog.files()) {
    Item it;
    it.index = f.id;
    it.s = static_cast<double>(f.size) / capacity;
    // Fraction of the *allowed* service capacity L this file consumes.
    it.l = model.rate * f.popularity * model.mu(f.size) / model.load_fraction;
    items.push_back(it);
  }
  validate_instance(items);
  return items;
}

Utilization utilization(std::span<const Item> items) {
  const auto total = sums(items);
  return Utilization{total.total_s, total.total_l};
}

} // namespace spindown::core
