// trace.h — request traces: the unit of exchange between workload generation
// and simulation.
//
// A Trace is a time-ordered list of read requests against a FileCatalog.
// Traces can be generated (Poisson/Zipf or the NERSC synthesizer), saved to
// and loaded from CSV, and summarized (the statistics the paper reports for
// its NERSC log: distinct files, arrival rate, mean accessed size, size
// histogram across 80 bins and its log-log linearity).
//
// A replay holds every record in memory, so a Trace stores its records as
// columns: arrival times and file ids, 12 bytes per record with no padding.
// The rare explicit block address is kept in a third column, which stays
// empty for synthesized traces.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "stats/histogram.h"
#include "util/math.h"
#include "workload/catalog.h"

namespace spindown::workload {

class Trace {
public:
  Trace() = default;
  /// Record i is (times[i], files[i], lbas[i]).  The columns are
  /// stable-sorted by time, so records of equal time keep their order.  One
  /// pass checks every file id (throws std::invalid_argument on an unknown
  /// one) and whether the times are already sorted; sorted input, such as a
  /// synthesized or saved trace, is kept as given.  `files` must have one
  /// entry per time, and `lbas` is empty or holds one address per record
  /// (kNoLba = locate the file via the catalog layout); any other length
  /// throws std::invalid_argument.  A column of nothing but kNoLba is
  /// dropped, so a trace without explicit addresses stores none.
  Trace(FileCatalog catalog, std::vector<double> times,
        std::vector<FileId> files, std::vector<std::uint64_t> lbas = {});

  const FileCatalog& catalog() const { return catalog_; }
  /// Arrival of every record, seconds from trace start, in record order.
  const std::vector<double>& times() const { return times_; }
  /// File of every record, in record order.
  const std::vector<FileId>& files() const { return files_; }
  std::size_t size() const { return times_.size(); }
  bool empty() const { return times_.empty(); }

  /// Explicit address of record i, or kNoLba.
  std::uint64_t lba(std::size_t i) const {
    return lbas_.empty() ? kNoLba : lbas_[i];
  }
  /// Every record's explicit address, in record order; empty when no record
  /// has one.
  std::span<const std::uint64_t> lbas() const { return lbas_; }

  /// End time of the trace (time of the last record; 0 if empty).
  double duration() const;

  /// Persist as two CSVs: <stem>.catalog.csv (id,size,popularity) and
  /// <stem>.trace.csv (time,file[,lba]; the lba column only when some
  /// record has one).  load() reads back the same bits.  Throws on I/O
  /// failure.
  void save(const std::filesystem::path& stem) const;
  /// Read what save() writes.  Every field parses strictly: a row with too
  /// few fields, or a field with a leading space, '+' or hex form or with
  /// trailing characters, a negative or non-finite time or popularity, or
  /// an id of 2^32 or more, throws
  /// std::runtime_error naming the file, the data row and the column.
  /// Catalog ids that are not dense 0..n-1, or records of unknown files,
  /// throw std::invalid_argument.
  static Trace load(const std::filesystem::path& stem);

  /// load() behind a shared_ptr — the ownership shape value-semantic specs
  /// need (WorkloadSpec/ScenarioSpec copies share one loaded trace).
  static std::shared_ptr<const Trace> load_shared(
      const std::filesystem::path& stem);

private:
  FileCatalog catalog_;
  std::vector<double> times_;       // sorted at construction
  std::vector<FileId> files_;       // one per time
  std::vector<std::uint64_t> lbas_; // empty, or one per time
};

/// Aggregate statistics, mirroring §5.1's description of the NERSC log.
struct TraceStats {
  std::size_t requests = 0;
  std::size_t distinct_files = 0;
  double duration_s = 0.0;
  double arrival_rate = 0.0;       ///< requests per second
  double mean_accessed_bytes = 0;  ///< mean size over *requests*
  util::Bytes total_catalog_bytes = 0;
  /// Minimum disk count to store every requested file (paper: 95).
  std::size_t min_disks(util::Bytes disk_capacity) const;
  /// Log-log fit of the 80-bin size histogram (slope < 0, r2 near 1 for a
  /// Zipf-like size distribution — the paper's §5.1 observation).
  util::LinearFit size_loglog_fit;
  /// Pearson correlation between file size and access count (paper: "no
  /// significant relationship").
  double size_frequency_correlation = 0.0;
};

/// Compute the statistics over a trace (uses 80 log-spaced size bins as in
/// the paper's analysis).
TraceStats analyze(const Trace& trace);

} // namespace spindown::workload
