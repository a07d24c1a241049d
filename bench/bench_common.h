// bench_common.h — shared plumbing for the figure benches.
//
// Every bench binary accepts:
//   --help         print usage and exit
//   --csv <path>   also write the series as CSV
//   --json <path>  also write the series as JSON (machine-readable rows;
//                  the committed BENCH_*.json baselines are made this way)
//   --seed <n>     override the experiment seed
//   --full         run the paper's dense grid (default grids are coarsened
//                  so the whole suite completes in minutes)
//   --threads <n>  parallel sweep width (default: hardware)
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/cli.h"
#include "util/csv.h"
#include "util/table.h"
#include "util/units.h"

namespace spindown::bench {

/// A pre-rendered JSON scalar; implicit constructors keep row() call sites
/// terse: writer.row({{"policy", "ewma"}, {"energy_j", 1234.5}}).
class JsonValue {
public:
  JsonValue(const char* s) : rendered_(util::json_quote(s)) {}        // NOLINT
  JsonValue(const std::string& s) : rendered_(util::json_quote(s)) {} // NOLINT
  JsonValue(bool b) : rendered_(b ? "true" : "false") {}           // NOLINT
  JsonValue(double v) {                                            // NOLINT
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.10g", v);
    rendered_ = buf;
  }
  JsonValue(int v) : rendered_(std::to_string(v)) {}               // NOLINT
  JsonValue(unsigned v) : rendered_(std::to_string(v)) {}          // NOLINT
  JsonValue(std::uint64_t v) : rendered_(std::to_string(v)) {}     // NOLINT
  JsonValue(std::int64_t v) : rendered_(std::to_string(v)) {}      // NOLINT

  const std::string& rendered() const { return rendered_; }

private:
  std::string rendered_;
};

/// Machine-readable bench output: a top-level object with the run's
/// provenance (bench name, quick/full, seed) plus optional meta fields, and
/// a "rows" array of flat objects — one per table row.  Rows are buffered
/// and the file is written by finish() (or the destructor).
class JsonWriter {
public:
  using Fields = std::initializer_list<std::pair<const char*, JsonValue>>;

  /// Opens the file eagerly so a bad path fails loudly up front (matching
  /// util::CsvWriter) instead of silently discarding the whole run.
  JsonWriter(std::filesystem::path path, std::string bench, bool quick,
             std::uint64_t seed)
      : out_(path), bench_(std::move(bench)), quick_(quick), seed_(seed) {
    if (!out_.is_open()) {
      throw std::runtime_error{"JsonWriter: cannot open " + path.string()};
    }
  }

  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;
  ~JsonWriter() { finish(); }

  /// Extra top-level field (scenario parameters, derived verdicts, ...).
  void meta(const std::string& key, JsonValue value) {
    meta_.emplace_back(key, value.rendered());
  }

  void row(Fields fields) {
    std::string line = "    {";
    bool first = true;
    for (const auto& [key, value] : fields) {
      if (!first) line += ", ";
      first = false;
      line += JsonValue{key}.rendered();
      line += ": ";
      line += value.rendered();
    }
    line += "}";
    rows_.push_back(std::move(line));
  }

  void finish() {
    if (done_) return;
    done_ = true;
    out_ << "{\n";
    out_ << "  \"bench\": " << JsonValue{bench_}.rendered() << ",\n";
    out_ << "  \"quick\": " << (quick_ ? "true" : "false") << ",\n";
    out_ << "  \"seed\": " << seed_ << ",\n";
    for (const auto& [key, rendered] : meta_) {
      out_ << "  " << JsonValue{key}.rendered() << ": " << rendered << ",\n";
    }
    out_ << "  \"rows\": [\n";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      out_ << rows_[i] << (i + 1 < rows_.size() ? ",\n" : "\n");
    }
    out_ << "  ]\n}\n";
  }

private:
  std::ofstream out_;
  std::string bench_;
  bool quick_;
  std::uint64_t seed_;
  std::vector<std::pair<std::string, std::string>> meta_;
  std::vector<std::string> rows_;
  bool done_ = false;
};

struct BenchOptions {
  std::optional<std::string> csv_path;
  std::optional<std::string> json_path;
  std::uint64_t seed = 1;
  bool full = false;
  unsigned threads = 0;

  static BenchOptions parse(int argc, char** argv) {
    const util::Cli cli{argc, argv};
    if (cli.has("help")) {
      std::cout << "usage: " << cli.program()
                << " [--csv <path>] [--json <path>] [--seed <n>] [--full]"
                   " [--threads <n>]\n";
      std::exit(0);
    }
    BenchOptions o;
    if (cli.has("csv")) o.csv_path = cli.get("csv", "bench.csv");
    if (cli.has("json")) o.json_path = cli.get("json", "bench.json");
    o.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
    o.full = cli.has("full");
    o.threads = static_cast<unsigned>(cli.get_int("threads", 0));
    return o;
  }

  std::unique_ptr<util::CsvWriter> csv() const {
    if (!csv_path.has_value()) return nullptr;
    return std::make_unique<util::CsvWriter>(
        std::filesystem::path{*csv_path});
  }

  /// nullptr unless --json was given.  `bench` is the binary's short name;
  /// `quick` whatever coarse/dense flag the bench runs under.
  std::unique_ptr<JsonWriter> json(const std::string& bench,
                                   bool quick) const {
    if (!json_path.has_value()) return nullptr;
    return std::make_unique<JsonWriter>(std::filesystem::path{*json_path},
                                        bench, quick, seed);
  }
};

inline void print_header(const std::string& title, const std::string& source) {
  std::cout << "== " << title << " ==\n";
  std::cout << "   reproduces: " << source << "\n\n";
}

} // namespace spindown::bench
