// chang_reference.h — O(n^2) reference implementation of the packing, with
// the paper's lemmas checked at runtime.
//
// Re-implementation of the Chang–Hwang–Park two-dimensional vector packing
// algorithm [3] as the paper describes it: the same item-selection rule as
// Pack_Disks, but the "heaps" are unordered vectors scanned for their
// maximum, so every draw costs O(n).  The packing *decisions* use
// PackDisks' arithmetic — running totals, an exact >= against the
// completeness threshold, ties toward the smaller index — so the tests
// compare the two assignments item by item; only the complexity differs,
// which bench/alloc_complexity measures (Lemma 7's O(n log n) vs O(n^2)
// claim).
//
// The §3.1 correctness argument rests on invariants PackDisks only asserts
// in debug builds.  This packer verifies every one of them on every step
// and counts how often each was exercised (report()):
//
//   * Lemma 1/2: on overflow, the evicted element's key dominates the
//     disk's imbalance (S-L <= ~s_k, resp. L-S <= ~l_k), and the opposite
//     list is non-empty;
//   * Lemma 3/4: after an eviction-insertion the disk is complete
//     (both totals in [1-rho, 1]);
//   * step feasibility: totals never exceed 1 in either dimension;
//   * Lemma 5/6: at most one heap survives the main loop, and at the end at
//     most one disk is below the completeness threshold in both dimensions;
//   * Lemma 7's accounting: every element is removed from a heap at most
//     (1 + eviction count) times in total.
//
// Any violation throws AuditFailure.  The checks allow a 1e-12 rounding
// tolerance; no packing decision does.
#pragma once

#include <cstdint>
#include <stdexcept>

#include "core/allocator.h"

namespace spindown::core {

class AuditFailure : public std::logic_error {
public:
  using std::logic_error::logic_error;
};

struct AuditReport {
  std::uint64_t steps = 0;            ///< heap pops in the main loop
  std::uint64_t evictions = 0;        ///< Lemma 1/2 events
  std::uint64_t lemma12_checks = 0;   ///< eviction-key dominance verified
  std::uint64_t lemma34_checks = 0;   ///< post-eviction completeness verified
  std::uint64_t disks_closed_complete = 0; ///< by eviction or completeness
  std::uint64_t remaining_packed = 0; ///< items placed by Pack_Remaining
  std::uint32_t incomplete_disks = 0; ///< below 1-rho in both dimensions
  double rho = 0.0;
};

class ChangHwangPark final : public Allocator {
public:
  /// Throws AuditFailure when a lemma check fails.
  Assignment allocate(std::span<const Item> items) override;

  /// The lemma audit of the last allocate() call.
  const AuditReport& report() const { return report_; }

private:
  AuditReport report_;
};

} // namespace spindown::core
