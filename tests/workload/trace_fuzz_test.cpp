// trace_fuzz_test.cpp — crash-freedom of Trace::load on hostile bytes.
//
// The trace CSV counterpart of tests/sys/spec_byte_fuzz_test.cpp: each of
// 8 000 seeded iterations byte-mutates one of the two CSVs of a valid
// 3-file, 4-record trace and loads the pair.  The contract under test:
//   * std::runtime_error (a malformed row or field) and
//     std::invalid_argument (catalog ids not dense, a record of an unknown
//     file) are the only exceptions that may escape load, and their
//     message names its source;
//   * every accepted trace has sorted, finite, non-negative times and
//     valid file ids, and save() then load() gives back equal records.
// The ASan/UBSan CI builds run it through ctest.
#include <gtest/gtest.h>

#include <cmath>
#include <exception>
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "support/byte_mutation.h"
#include "util/rng.h"
#include "workload/trace.h"

namespace spindown::workload {
namespace {

constexpr std::string_view kCatalog =
    "id,size_bytes,popularity\n0,10000000,0.5\n1,20000000,0.3\n"
    "2,30000000,0.2\n";
constexpr std::string_view kTrace =
    "time_s,file_id,lba\n1.5,0,\n2.25,2,4096\n2.25,1,\n7,0,\n";
/// Bytes the CSV parser gives meaning to.
constexpr std::string_view kCsvBytes = "0123456789.,-+e\n\"x ";

/// Some file systems flush a file that is truncated and rewritten when it
/// is closed; removing it first keeps thousands of rewrites fast.
void remove_csvs(const std::string& stem) {
  std::filesystem::remove(stem + ".catalog.csv");
  std::filesystem::remove(stem + ".trace.csv");
}

class TraceByteFuzz : public ::testing::Test {
protected:
  const std::filesystem::path dir_ = std::filesystem::temp_directory_path();
  /// One input stem per mutated file, so the other file of each pair
  /// keeps its valid bytes and is written once.
  const std::string inputs_[2] = {(dir_ / "spindown_fuzz_catalog").string(),
                                  (dir_ / "spindown_fuzz_trace").string()};
  const std::string resaved_ = (dir_ / "spindown_trace_fuzz_out").string();
  void TearDown() override {
    remove_csvs(inputs_[0]);
    remove_csvs(inputs_[1]);
    remove_csvs(resaved_);
  }
};

/// A load error says where it comes from ("Trace::load: bad time_s ...",
/// "FileCatalog: ids must be dense ..."), never a bare "stod".
bool names_its_source(const std::exception& e) {
  const std::string_view what = e.what();
  return what.rfind("Trace", 0) == 0 || what.rfind("FileCatalog", 0) == 0;
}

/// The accepted-trace half of the contract; returns false on a violation.
bool check_accepted(const Trace& t, const std::string& resaved) {
  double prev = 0.0;
  for (std::size_t i = 0; i < t.size(); ++i) {
    const double time = t.times()[i];
    if (!std::isfinite(time) || time < prev ||
        t.files()[i] >= t.catalog().size()) {
      return false;
    }
    prev = time;
  }
  remove_csvs(resaved);
  t.save(resaved);
  const Trace again = Trace::load(resaved);
  if (again.size() != t.size() ||
      again.catalog().size() != t.catalog().size()) {
    return false;
  }
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t.times()[i] != again.times()[i] || t.files()[i] != again.files()[i] ||
        t.lba(i) != again.lba(i)) {
      return false;
    }
  }
  for (std::size_t i = 0; i < t.catalog().size(); ++i) {
    const auto& a = t.catalog()[i];
    const auto& b = again.catalog()[i];
    if (a.size != b.size || a.popularity != b.popularity) return false;
  }
  return true;
}

TEST_F(TraceByteFuzz, OnlyLoadErrorsEscapeAndAcceptedTracesRoundTrip) {
  util::Rng rng{20261017};
  std::size_t accepted = 0;
  // 8 000 iterations keep the loop under 1 s in Debug: each one creates
  // a file, and an accepted trace two more.
  constexpr int kIterations = 8'000;
  const std::string_view valid[2] = {kCatalog, kTrace};
  const char* const suffix[2] = {".catalog.csv", ".trace.csv"};
  for (int f = 0; f < 2; ++f) {
    std::ofstream{inputs_[1 - f] + suffix[f], std::ios::binary} << valid[f];
  }
  for (int i = 0; i < kIterations; ++i) {
    const auto f = rng.uniform_int(0, 1);
    const std::string& input = inputs_[f];
    const auto bytes =
        test_support::mutate_bytes(std::string{valid[f]}, kCsvBytes, rng);
    std::filesystem::remove(input + suffix[f]);
    std::ofstream{input + suffix[f], std::ios::binary} << bytes;
    const auto shown = [&] {
      return std::string{suffix[f]} + " '" + bytes + "'";
    };
    std::optional<Trace> loaded;
    try {
      loaded.emplace(Trace::load(input));
    } catch (const std::runtime_error& e) {
      EXPECT_TRUE(names_its_source(e)) << e.what() << " on " << shown();
      continue;
    } catch (const std::invalid_argument& e) {
      EXPECT_TRUE(names_its_source(e)) << e.what() << " on " << shown();
      continue;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "load leaked " << e.what() << " on " << shown();
      continue;
    }
    ++accepted;
    try {
      EXPECT_TRUE(check_accepted(*loaded, resaved_)) << shown();
    } catch (const std::exception& e) {
      ADD_FAILURE() << "re-load threw " << e.what() << " on " << shown();
    }
  }
  // Both branches must be exercised for the loop to mean anything.
  EXPECT_GT(accepted, kIterations / 100);
  EXPECT_LT(accepted, kIterations);
}

} // namespace
} // namespace spindown::workload
