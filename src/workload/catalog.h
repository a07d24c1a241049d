// catalog.h — the file population: sizes and access popularities.
//
// A FileCatalog is the static input to the allocation problem: for each file
// its size s_i (bytes) and its access probability p_i (sums to 1).  The
// generator reproduces Table 1 of the paper:
//
//   n = 40,000 files; p_i Zipf-like with exponent (1-theta); sizes follow an
//   inverse Zipf-like distribution, "inverse relation between access
//   frequency and size": popularity rank i receives size
//       s_i = S_max / (n + 1 - i)^(1-theta)
//   which simultaneously yields (with S_max = 20 GB, n = 40,000):
//     * minimum size  S_max / n^(1-theta)  ~ 188 MB   (Table 1's minimum),
//     * Zipf-distributed sizes (the size *histogram* is power-law), and
//     * total ~ 12.9 TB (Table 1 reports 12.86 TB).
//   These emergent agreements are checked in tests; they justify reading
//   "inverse Zipf-like" as above.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.h"
#include "util/units.h"

namespace spindown::workload {

using FileId = std::uint32_t;

/// "No logical block address": requests carrying this sentinel are located
/// by the router from the catalog layout (layout_extents below).
inline constexpr std::uint64_t kNoLba = ~0ULL;

struct FileInfo {
  FileId id = 0;
  util::Bytes size = 0;
  double popularity = 0.0; ///< access probability p_i; catalog sums to 1
};

/// Contiguous logical-block extent of a file on its assigned disk:
/// [lba, lba + blocks) in util::kBlockBytes blocks, per-disk address space.
struct FileExtent {
  std::uint64_t lba = 0;
  std::uint64_t blocks = 0;
};

class FileCatalog {
public:
  FileCatalog() = default;
  explicit FileCatalog(std::vector<FileInfo> files);

  std::size_t size() const { return files_.size(); }
  bool empty() const { return files_.empty(); }
  const FileInfo& operator[](std::size_t i) const { return files_[i]; }
  const FileInfo& by_id(FileId id) const;
  const std::vector<FileInfo>& files() const { return files_; }

  util::Bytes total_bytes() const { return total_bytes_; }
  util::Bytes min_size() const;
  util::Bytes max_size() const;

  /// Request-weighted mean size: sum p_i * s_i (expected bytes per request).
  double mean_request_bytes() const;

  /// Popularity vector indexed by file id (for alias-table construction).
  std::vector<double> popularity_vector() const;

  /// Re-normalize popularities to sum to exactly 1 (call after edits).
  void normalize_popularity();

private:
  std::vector<FileInfo> files_; // files_[i].id == i always holds
  util::Bytes total_bytes_ = 0;
};

/// How file size relates to access frequency in a generated catalog.
enum class SizeCorrelation {
  kInverse,     ///< paper's Table 1: most popular file is smallest
  kIndependent, ///< NERSC observation (§5.1): "no significant relationship"
  kDirect,      ///< adversarial: most popular file is largest (for ablation)
};

/// Parameters of the synthetic (Table 1) catalog.
struct SyntheticSpec {
  std::size_t n_files = 40'000;
  double zipf_exponent = 0.0; ///< 0 means "use the paper's 1-theta"
  util::Bytes max_size = util::gb(20.0);
  SizeCorrelation correlation = SizeCorrelation::kInverse;

  /// Exactly Table 1.
  static SyntheticSpec paper_table1();
};

/// Deterministically build a catalog from a spec.  The rng is used only for
/// the kIndependent correlation mode (random size permutation).
FileCatalog generate_catalog(const SyntheticSpec& spec, util::Rng& rng);

/// Logical-block layout of an assignment: file i receives a contiguous
/// extent on disk mapping[i], packed in file-id order from LBA 0 upward
/// (each disk has its own address space).  Packing from the outer tracks
/// down keeps co-located files close, so geometry-aware schedulers see the
/// locality the allocation created.  `mapping` is an Assignment's disk_of;
/// mapping.size() must cover the catalog.  Returned vector is indexed by
/// file id.
std::vector<FileExtent> layout_extents(
    const FileCatalog& catalog, const std::vector<std::uint32_t>& mapping,
    std::uint32_t num_disks);

} // namespace spindown::workload
