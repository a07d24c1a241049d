#include "core/chang_reference.h"

#include <algorithm>
#include <string>
#include <vector>

namespace spindown::core {

namespace {

/// Rounding tolerance of the lemma checks (never of a packing decision).
constexpr double kEps = 1e-12;

/// Unordered pool scanned linearly for its maximum-key element: the O(n)
/// stand-in for the max-heap.
class ScanPool {
public:
  void add(double key, std::uint32_t index) { elems_.push_back({key, index}); }

  bool empty() const { return elems_.empty(); }

  /// Remove and return the index of the max-key element (ties: smallest
  /// index), by linear scan.
  std::uint32_t pop_max() {
    std::size_t best = 0;
    for (std::size_t i = 1; i < elems_.size(); ++i) {
      if (elems_[i].key > elems_[best].key ||
          (elems_[i].key == elems_[best].key &&
           elems_[i].index < elems_[best].index)) {
        best = i;
      }
    }
    const auto idx = elems_[best].index;
    elems_.erase(elems_.begin() + static_cast<std::ptrdiff_t>(best));
    return idx;
  }

private:
  struct Elem {
    double key;
    std::uint32_t index;
  };
  std::vector<Elem> elems_;
};

[[noreturn]] void fail(const std::string& what) {
  throw AuditFailure{"Pack_Disks audit: " + what};
}

} // namespace

Assignment ChangHwangPark::allocate(std::span<const Item> items) {
  validate_instance(items);
  report_ = AuditReport{};
  Assignment out;
  out.disk_of.assign(items.size(), 0);
  if (items.empty()) return out;

  report_.rho = rho(items);
  const double threshold = 1.0 - report_.rho;

  ScanPool pool_s, pool_l;
  for (const auto& it : items) {
    if (it.size_intensive()) {
      pool_s.add(it.s_key(), it.index);
    } else {
      pool_l.add(it.l_key(), it.index);
    }
  }

  // The open disk: running totals and its members by origin pool, in the
  // order they were added.
  double S = 0.0, L = 0.0;
  std::vector<std::uint32_t> s_list, l_list;

  auto add = [&](std::vector<std::uint32_t>& list, std::uint32_t j) {
    list.push_back(j);
    S += items[j].s;
    L += items[j].l;
    if (S > 1.0 + kEps) fail("size total exceeded 1 on an open disk");
    if (L > 1.0 + kEps) fail("load total exceeded 1 on an open disk");
  };

  auto close_disk = [&] {
    for (const auto idx : s_list) out.disk_of[idx] = out.disk_count;
    for (const auto idx : l_list) out.disk_of[idx] = out.disk_count;
    ++out.disk_count;
    S = L = 0.0;
    s_list.clear();
    l_list.clear();
  };

  // Overflow in the dominating dimension: evict the last member drawn from
  // that side's pool back to it (Lemma 1 on the size side, 2 on the load
  // side), insert j, and close the now complete disk (Lemma 3/4).
  auto evict_and_close = [&](bool size_side, std::uint32_t j) {
    auto& evict_from = size_side ? s_list : l_list;
    const std::string lemma = size_side ? "Lemma 1" : "Lemma 2";
    if (evict_from.empty()) fail(lemma + " violated: list empty on overflow");
    const auto k = evict_from.back();
    const double key = size_side ? items[k].s_key() : items[k].l_key();
    if (key < (size_side ? S - L : L - S) - kEps) {
      fail(lemma + " violated: evicted key below the disk's imbalance");
    }
    ++report_.lemma12_checks;
    evict_from.pop_back();
    S -= items[k].s;
    L -= items[k].l;
    (size_side ? pool_s : pool_l).add(key, k);
    add(size_side ? l_list : s_list, j);
    ++report_.evictions;
    if (S < threshold - kEps || L < threshold - kEps) {
      fail("Lemma 3/4 violated: post-eviction disk not complete (S=" +
           std::to_string(S) + " L=" + std::to_string(L) + ")");
    }
    ++report_.lemma34_checks;
    ++report_.disks_closed_complete;
    close_disk();
  };

  while ((S >= L && !pool_l.empty()) || (S < L && !pool_s.empty())) {
    ++report_.steps;
    if (S >= L) {
      const auto j = pool_l.pop_max();
      if (S + items[j].s > 1.0) {
        evict_and_close(/*size_side=*/true, j);
        continue;
      }
      add(l_list, j);
    } else {
      const auto j = pool_s.pop_max();
      if (L + items[j].l > 1.0) {
        evict_and_close(/*size_side=*/false, j);
        continue;
      }
      add(s_list, j);
    }
    if (S >= threshold && L >= threshold) {
      ++report_.disks_closed_complete;
      close_disk();
    }
  }

  // Lemma 5: at most one of the heaps is non-empty after the main loop.
  if (!pool_s.empty() && !pool_l.empty()) {
    fail("Lemma 5 violated: both heaps non-empty after the main loop");
  }

  // Pack_Remaining (size side, then load side — at most one runs).
  while (!pool_s.empty()) {
    const auto j = pool_s.pop_max();
    if (S + items[j].s > 1.0) close_disk();
    add(s_list, j);
    ++report_.remaining_packed;
  }
  while (!pool_l.empty()) {
    const auto j = pool_l.pop_max();
    if (L + items[j].l > 1.0) close_disk();
    add(l_list, j);
    ++report_.remaining_packed;
  }
  if (!s_list.empty() || !l_list.empty()) close_disk();

  // Lemma 6 / Theorem 1 case analysis: at most one disk (the last of each
  // phase) may miss the completeness threshold in both dimensions.
  for (const auto& d : disk_totals(out, items)) {
    if (std::max(d.s, d.l) < threshold - kEps) ++report_.incomplete_disks;
  }
  if (report_.incomplete_disks > 1) {
    fail("Lemma 6 violated: " + std::to_string(report_.incomplete_disks) +
         " disks below the completeness threshold in both dimensions");
  }
  if (!is_feasible(out, items)) fail("final assignment infeasible");
  return out;
}

} // namespace spindown::core
