#include "workload/trace.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/csv.h"

namespace spindown::workload {

Trace::Trace(FileCatalog catalog, std::vector<TraceRecord> records)
    : catalog_(std::move(catalog)), records_(std::move(records)) {
  bool sorted = true;
  double prev = -std::numeric_limits<double>::infinity();
  for (const auto& r : records_) {
    if (r.file >= catalog_.size()) {
      throw std::invalid_argument{"Trace: record references unknown file"};
    }
    sorted = sorted && !(r.time < prev);
    prev = r.time;
  }
  if (!sorted) {
    std::stable_sort(records_.begin(), records_.end(),
                     [](const TraceRecord& a, const TraceRecord& b) {
                       return a.time < b.time;
                     });
  }
}

double Trace::duration() const {
  return records_.empty() ? 0.0 : records_.back().time;
}

void Trace::save(const std::filesystem::path& stem) const {
  {
    util::CsvWriter cat{std::filesystem::path{stem.string() + ".catalog.csv"}};
    cat.write_row({"id", "size_bytes", "popularity"});
    for (const auto& f : catalog_.files()) {
      cat.row(std::to_string(f.id), std::to_string(f.size),
              std::to_string(f.popularity));
    }
  }
  {
    // The lba column is only written when some record carries an explicit
    // address, so traces saved by older revisions round-trip unchanged.
    const bool with_lba =
        std::any_of(records_.begin(), records_.end(),
                    [](const TraceRecord& r) { return r.lba != kNoLba; });
    util::CsvWriter tr{std::filesystem::path{stem.string() + ".trace.csv"}};
    if (with_lba) {
      tr.write_row({"time_s", "file_id", "lba"});
      for (const auto& r : records_) {
        tr.row(std::to_string(r.time), std::to_string(r.file),
               r.lba == kNoLba ? std::string{} : std::to_string(r.lba));
      }
    } else {
      tr.write_row({"time_s", "file_id"});
      for (const auto& r : records_) {
        tr.row(std::to_string(r.time), std::to_string(r.file));
      }
    }
  }
}

Trace Trace::load(const std::filesystem::path& stem) {
  std::vector<FileInfo> files;
  {
    util::CsvReader cat{std::filesystem::path{stem.string() + ".catalog.csv"}};
    auto header = cat.next();
    if (!header) throw std::runtime_error{"Trace::load: empty catalog csv"};
    while (auto row = cat.next()) {
      if (row->size() < 3) {
        throw std::runtime_error{"Trace::load: bad catalog row"};
      }
      FileInfo f;
      f.id = static_cast<FileId>(std::stoul((*row)[0]));
      f.size = std::stoull((*row)[1]);
      f.popularity = std::stod((*row)[2]);
      files.push_back(f);
    }
  }
  std::vector<TraceRecord> records;
  {
    util::CsvReader tr{std::filesystem::path{stem.string() + ".trace.csv"}};
    auto header = tr.next();
    if (!header) throw std::runtime_error{"Trace::load: empty trace csv"};
    for (std::size_t n = 1; auto row = tr.next(); ++n) {
      if (row->size() < 2) {
        throw std::runtime_error{"Trace::load: bad trace row"};
      }
      TraceRecord rec;
      rec.time = std::stod((*row)[0]);
      // A NaN or infinite arrival never lets the simulated clock pass it,
      // and a negative one precedes the run: reject both by data row.
      if (!std::isfinite(rec.time) || rec.time < 0.0) {
        throw std::runtime_error{"Trace::load: bad time_s '" + (*row)[0] +
                                 "' in trace row " + std::to_string(n)};
      }
      rec.file = static_cast<FileId>(std::stoul((*row)[1]));
      // Optional third column: explicit lba (may be empty per-row).
      if (row->size() >= 3 && !(*row)[2].empty()) {
        rec.lba = std::stoull((*row)[2]);
      }
      records.push_back(rec);
    }
  }
  return Trace{FileCatalog{std::move(files)}, std::move(records)};
}

std::shared_ptr<const Trace> Trace::load_shared(
    const std::filesystem::path& stem) {
  return std::make_shared<const Trace>(load(stem));
}

std::size_t TraceStats::min_disks(util::Bytes disk_capacity) const {
  if (disk_capacity == 0) return 0;
  return static_cast<std::size_t>(
      std::ceil(static_cast<double>(total_catalog_bytes) /
                static_cast<double>(disk_capacity)));
}

TraceStats analyze(const Trace& trace) {
  TraceStats out;
  out.requests = trace.size();
  out.duration_s = trace.duration();
  out.total_catalog_bytes = trace.catalog().total_bytes();
  if (trace.empty()) return out;

  // Distinct-file count comes from the dense per-file access_count vector
  // rather than a hash set: FileIds are contiguous catalog indices, and the
  // vector keeps this function free of unordered containers entirely.
  double bytes_sum = 0.0;
  std::vector<double> access_count(trace.catalog().size(), 0.0);
  for (const auto& r : trace.records()) {
    bytes_sum += static_cast<double>(trace.catalog().by_id(r.file).size);
    access_count[r.file] += 1.0;
  }
  out.distinct_files = static_cast<std::size_t>(
      std::count_if(access_count.begin(), access_count.end(),
                    [](double c) { return c > 0.0; }));
  out.arrival_rate = out.duration_s > 0.0
                         ? static_cast<double>(out.requests) / out.duration_s
                         : 0.0;
  out.mean_accessed_bytes = bytes_sum / static_cast<double>(out.requests);

  // 80-bin log-spaced size histogram over the catalog, as in §5.1 ("we
  // classified the 88,631 files into 80 bins by their size").
  const double lo = std::max<double>(
      1.0, static_cast<double>(trace.catalog().min_size()));
  const double hi = static_cast<double>(trace.catalog().max_size()) * 1.0001;
  if (hi > lo) {
    stats::LogHistogram hist{lo, hi, 80};
    for (const auto& f : trace.catalog().files()) {
      hist.add(static_cast<double>(f.size));
    }
    std::vector<double> xs, ys;
    for (std::size_t i = 0; i < hist.bins(); ++i) {
      if (hist.bin_count(i) > 0) {
        xs.push_back(hist.bin_mid(i));
        ys.push_back(static_cast<double>(hist.bin_count(i)) /
                     static_cast<double>(hist.total()));
      }
    }
    out.size_loglog_fit = util::log_log_fit(xs, ys);
  }

  // Pearson correlation of (size, access count) over files that were
  // accessed at least once.
  {
    std::vector<double> sizes, counts;
    for (const auto& f : trace.catalog().files()) {
      if (access_count[f.id] > 0.0) {
        sizes.push_back(static_cast<double>(f.size));
        counts.push_back(access_count[f.id]);
      }
    }
    if (sizes.size() >= 2) {
      const double ms = util::mean(sizes);
      const double mc = util::mean(counts);
      double num = 0, ds = 0, dc = 0;
      for (std::size_t i = 0; i < sizes.size(); ++i) {
        num += (sizes[i] - ms) * (counts[i] - mc);
        ds += (sizes[i] - ms) * (sizes[i] - ms);
        dc += (counts[i] - mc) * (counts[i] - mc);
      }
      if (ds > 0 && dc > 0) {
        out.size_frequency_correlation = num / std::sqrt(ds * dc);
      }
    }
  }
  return out;
}

} // namespace spindown::workload
