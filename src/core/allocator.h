// allocator.h — common interface of all file-allocation strategies.
#pragma once

#include <memory>
#include <span>

#include "core/item.h"

namespace spindown::core {

class Allocator {
public:
  virtual ~Allocator() = default;

  /// Partition the instance into disks.  Implementations must produce a
  /// feasible assignment (is_feasible) for any valid instance.
  virtual Assignment allocate(std::span<const Item> items) = 0;
};

} // namespace spindown::core
