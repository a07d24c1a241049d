// chang_reference.h — O(n^2) reference implementation of the packing.
//
// Re-implementation of the Chang–Hwang–Park two-dimensional vector packing
// algorithm [3] as the paper describes it: the same item-selection rule as
// Pack_Disks, but with naive data structures — the open disk's members live
// in one flat list whose totals are recomputed by scanning, the "heaps" are
// unordered vectors scanned for their maximum, and the element to evict on
// overflow is found by searching the member list.  The packing *decisions*
// are identical to PackDisks (same tie-breaking), which the tests verify by
// comparing assignments item-by-item; only the complexity differs, which
// bench_alloc_complexity measures (Lemma 7's O(n log n) vs O(n^2) claim).
#pragma once

#include "core/allocator.h"

namespace spindown::core {

class ChangHwangPark final : public Allocator {
public:
  Assignment allocate(std::span<const Item> items) override;
};

} // namespace spindown::core
