#include "workload/trace.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/csv.h"
#include "util/units.h"

namespace spindown::workload {

Trace::Trace(FileCatalog catalog, std::vector<TraceRecord> records,
             std::vector<std::uint64_t> lbas)
    : catalog_(std::move(catalog)), records_(std::move(records)),
      lbas_(std::move(lbas)) {
  if (!lbas_.empty() && lbas_.size() != records_.size()) {
    throw std::invalid_argument{
        "Trace: " + std::to_string(lbas_.size()) + " lbas for " +
        std::to_string(records_.size()) + " records"};
  }
  if (std::all_of(lbas_.begin(), lbas_.end(),
                  [](std::uint64_t lba) { return lba == kNoLba; })) {
    lbas_ = {};
  }
  bool sorted = true;
  double prev = -std::numeric_limits<double>::infinity();
  for (const auto& r : records_) {
    if (r.file >= catalog_.size()) {
      throw std::invalid_argument{"Trace: record references unknown file"};
    }
    sorted = sorted && !(r.time < prev);
    prev = r.time;
  }
  if (sorted) return;
  // Stable-sort the record order, then apply it to the records and to
  // their addresses alike.
  std::vector<std::size_t> order(records_.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return records_[a].time < records_[b].time;
                   });
  const auto permute = [&order](auto& column) {
    auto sorted_column = column;
    for (std::size_t i = 0; i < order.size(); ++i) {
      sorted_column[i] = column[order[i]];
    }
    column = std::move(sorted_column);
  };
  permute(records_);
  if (!lbas_.empty()) permute(lbas_);
}

double Trace::duration() const {
  return records_.empty() ? 0.0 : records_.back().time;
}

void Trace::save(const std::filesystem::path& stem) const {
  // Doubles are written with util::format_roundtrip, so load() gives back
  // the same bits.
  {
    util::CsvWriter cat{std::filesystem::path{stem.string() + ".catalog.csv"}};
    cat.write_row({"id", "size_bytes", "popularity"});
    for (const auto& f : catalog_.files()) {
      cat.row(std::to_string(f.id), std::to_string(f.size),
              util::format_roundtrip(f.popularity));
    }
  }
  {
    // The lba column is only written when some record carries an explicit
    // address, so traces saved by older revisions round-trip unchanged.
    util::CsvWriter tr{std::filesystem::path{stem.string() + ".trace.csv"}};
    if (!lbas_.empty()) {
      tr.write_row({"time_s", "file_id", "lba"});
      for (std::size_t i = 0; i < records_.size(); ++i) {
        const auto& r = records_[i];
        tr.row(util::format_roundtrip(r.time), std::to_string(r.file),
               lbas_[i] == kNoLba ? std::string{} : std::to_string(lbas_[i]));
      }
    } else {
      tr.write_row({"time_s", "file_id"});
      for (const auto& r : records_) {
        tr.row(util::format_roundtrip(r.time), std::to_string(r.file));
      }
    }
  }
}

namespace {

/// The data rows of one trace CSV, after its header.  Every field parses
/// strictly; a bad one throws std::runtime_error naming the file, the data
/// row and the column.
class DataRows {
public:
  DataRows(std::string path, std::array<const char*, 3> columns,
           std::size_t required)
      : path_(std::move(path)), columns_(columns), required_(required),
        reader_(std::filesystem::path{path_}) {
    if (!reader_.next()) {
      throw std::runtime_error{"Trace::load: no header in " + path_};
    }
  }

  /// Advance to the next data row; false at the end of the file.
  bool next() {
    auto row = reader_.next();
    if (!row) return false;
    ++number_;
    row_ = std::move(*row);
    if (row_.size() < required_) {
      throw std::runtime_error{
          "Trace::load: data row " + std::to_string(number_) + " of " +
          path_ + " has " + std::to_string(row_.size()) + " fields, want " +
          std::to_string(required_)};
    }
    return true;
  }

  bool has(std::size_t column) const {
    return column < row_.size() && !row_[column].empty();
  }

  std::uint64_t count(std::size_t column,
                      std::uint64_t max = ~std::uint64_t{0}) const {
    const auto v = util::parse_unsigned(row_[column]);
    if (!v.has_value() || *v > max) fail(column);
    return *v;
  }

  /// A time or a popularity: finite and not negative.  A NaN or infinite
  /// arrival never lets the simulated clock pass it, and a negative one
  /// precedes the run.
  /// Parsed with from_chars over the whole field, which, unlike strtod,
  /// takes no leading space, '+' or hex form.
  double non_negative(std::size_t column) const {
    const std::string& s = row_[column];
    const char* const end = s.data() + s.size();
    double v = 0.0;
    const auto [ptr, ec] =
        std::from_chars(s.data(), end, v, std::chars_format::general);
    if (ec != std::errc{} || ptr != end || !std::isfinite(v) || v < 0.0) {
      fail(column);
    }
    return v;
  }

private:
  [[noreturn]] void fail(std::size_t column) const {
    throw std::runtime_error{std::string{"Trace::load: bad "} +
                             columns_[column] + " '" + row_[column] +
                             "' in data row " + std::to_string(number_) +
                             " of " + path_};
  }

  std::string path_;
  std::array<const char*, 3> columns_;
  std::size_t required_;
  util::CsvReader reader_;
  std::vector<std::string> row_;
  std::size_t number_ = 0;
};

constexpr std::uint64_t kMaxFileId = std::numeric_limits<FileId>::max();

} // namespace

Trace Trace::load(const std::filesystem::path& stem) {
  std::vector<FileInfo> files;
  DataRows cat{stem.string() + ".catalog.csv",
               {"id", "size_bytes", "popularity"}, 3};
  while (cat.next()) {
    FileInfo f;
    f.id = static_cast<FileId>(cat.count(0, kMaxFileId));
    f.size = cat.count(1);
    f.popularity = cat.non_negative(2);
    files.push_back(f);
  }
  std::vector<TraceRecord> records;
  std::vector<std::uint64_t> lbas; // dropped by Trace when all kNoLba
  DataRows tr{stem.string() + ".trace.csv", {"time_s", "file_id", "lba"}, 2};
  while (tr.next()) {
    TraceRecord rec;
    rec.time = tr.non_negative(0);
    rec.file = static_cast<FileId>(tr.count(1, kMaxFileId));
    records.push_back(rec);
    // Optional third column: explicit lba (may be empty per-row).
    lbas.push_back(tr.has(2) ? tr.count(2) : kNoLba);
  }
  return Trace{FileCatalog{std::move(files)}, std::move(records),
               std::move(lbas)};
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
