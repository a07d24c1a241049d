// pack_segregated.h — size-class-segregated packing (§6 future work).
//
// The paper's conclusions: "we noted that large files that introduce long
// response time delays, residing on the same disk with small and frequently
// accessed files lead to the formation of long queues of requests for the
// latter files ... further improvements to the response time can be made by
// restricting the types of files that are allocated to the same disk."
//
// SegregatedPackDisks implements that restriction: items are partitioned
// into k size classes (equal-population quantiles of the s coordinate) and
// each class is packed with Pack_Disks independently, so a 20 GB archive
// never shares a spindle — and a queue — with a 188 MB hot file.  The cost
// is a few extra disks (each class pays its own "last partial disk"), i.e.
// slightly less power saving; bench_future_work quantifies both sides.
#pragma once

#include <cstddef>

#include "core/allocator.h"

namespace spindown::core {

class SegregatedPackDisks final : public Allocator {
public:
  /// k >= 1 size classes; k = 1 is exactly Pack_Disks.
  explicit SegregatedPackDisks(std::size_t classes);

  Assignment allocate(std::span<const Item> items) override;

  std::size_t classes() const { return classes_; }

private:
  std::size_t classes_;
};

} // namespace spindown::core
