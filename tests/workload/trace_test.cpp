#include "workload/trace.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <utility>
#include <vector>

#include "util/units.h"

namespace spindown::workload {
namespace {

FileCatalog small_catalog() {
  std::vector<FileInfo> files{
      {0, util::mb(10.0), 0.5},
      {1, util::mb(20.0), 0.3},
      {2, util::mb(30.0), 0.2},
  };
  return FileCatalog{files};
}

TEST(Trace, SortsRecordsByTime) {
  const Trace t{small_catalog(),
                {{5.0, 1}, {1.0, 0}, {3.0, 2}}};
  EXPECT_DOUBLE_EQ(t.records()[0].time, 1.0);
  EXPECT_DOUBLE_EQ(t.records()[1].time, 3.0);
  EXPECT_DOUBLE_EQ(t.records()[2].time, 5.0);
  EXPECT_DOUBLE_EQ(t.duration(), 5.0);
}

TEST(Trace, SortIsStableAmongEqualTimes) {
  // Unsorted: records of equal time keep the order they were given in.
  const Trace unsorted{small_catalog(),
                       {{2.0, 2}, {1.0, 1}, {2.0, 0}, {1.0, 2}, {2.0, 1}}};
  const std::vector<std::pair<double, FileId>> want{
      {1.0, 1}, {1.0, 2}, {2.0, 2}, {2.0, 0}, {2.0, 1}};
  ASSERT_EQ(unsorted.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(unsorted.records()[i].time, want[i].first) << i;
    EXPECT_EQ(unsorted.records()[i].file, want[i].second) << i;
  }
  // Enough records that an unstable sort would reorder ties: file i is
  // given i-th, so a stable result is ordered by (time, file).
  std::vector<FileInfo> files;
  std::vector<TraceRecord> many;
  for (FileId i = 0; i < 200; ++i) {
    files.push_back({i, util::mb(1.0), 1.0});
    many.push_back({static_cast<double>((i * 7) % 5), i});
  }
  const Trace big{FileCatalog{files}, many};
  for (std::size_t i = 1; i < big.size(); ++i) {
    const auto& a = big.records()[i - 1];
    const auto& b = big.records()[i];
    EXPECT_TRUE(a.time < b.time || (a.time == b.time && a.file < b.file))
        << i;
  }
  // Already sorted, ties included: every record comes back where it was.
  const std::vector<TraceRecord> in{
      {0.5, 2}, {1.0, 1}, {1.0, 0}, {1.0, 2}, {4.0, 0}};
  const std::vector<std::uint64_t> in_lbas{7, kNoLba, 3, kNoLba, kNoLba};
  const Trace sorted{small_catalog(), in, in_lbas};
  ASSERT_EQ(sorted.size(), in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(sorted.records()[i].time, in[i].time) << i;
    EXPECT_EQ(sorted.records()[i].file, in[i].file) << i;
    EXPECT_EQ(sorted.lba(i), in_lbas[i]) << i;
  }
}

TEST(Trace, SortKeepsEachLbaWithItsRecord) {
  // Unsorted, with explicit and missing addresses mixed: every address
  // travels with its record, and ties keep their given order.
  const Trace t{small_catalog(),
                {{3.0, 0}, {1.0, 1}, {2.0, 2}, {1.0, 0}, {3.0, 1}},
                {30, kNoLba, 20, 10, kNoLba}};
  const std::vector<std::pair<double, std::uint64_t>> want{
      {1.0, kNoLba}, {1.0, 10}, {2.0, 20}, {3.0, 30}, {3.0, kNoLba}};
  ASSERT_EQ(t.size(), want.size());
  ASSERT_EQ(t.lbas().size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(t.records()[i].time, want[i].first) << i;
    EXPECT_EQ(t.lba(i), want[i].second) << i;
  }
  EXPECT_EQ(t.records()[0].file, 1u);
  EXPECT_EQ(t.records()[1].file, 0u);
}

TEST(Trace, NoLbaColumnStoresNone) {
  // Without explicit addresses, given none or only kNoLba, the trace keeps
  // no column and every record reads kNoLba.
  const Trace none{small_catalog(), {{2.0, 1}, {1.0, 0}}};
  const Trace all_missing{small_catalog(), {{2.0, 1}, {1.0, 0}},
                          {kNoLba, kNoLba}};
  for (const Trace* t : {&none, &all_missing}) {
    EXPECT_TRUE(t->lbas().empty());
    EXPECT_EQ(t->lba(0), kNoLba);
    EXPECT_EQ(t->lba(1), kNoLba);
  }
}

TEST(Trace, LbaColumnOfTheWrongLengthThrows) {
  EXPECT_THROW((Trace{small_catalog(), {{1.0, 0}, {2.0, 1}}, {5}}),
               std::invalid_argument);
}

TEST(Trace, RejectsUnknownFiles) {
  EXPECT_THROW((Trace{small_catalog(), {{1.0, 9}}}), std::invalid_argument);
  // Sorted input skips the sort; unsorted input sorts after the check.
  EXPECT_THROW((Trace{small_catalog(), {{1.0, 0}, {2.0, 9}, {3.0, 1}}}),
               std::invalid_argument);
  EXPECT_THROW((Trace{small_catalog(), {{3.0, 0}, {2.0, 1}, {1.0, 9}}}),
               std::invalid_argument);
}

TEST(Trace, EmptyTraceBasics) {
  const Trace t{small_catalog(), {}};
  EXPECT_TRUE(t.empty());
  EXPECT_DOUBLE_EQ(t.duration(), 0.0);
}

class TraceIo : public ::testing::Test {
protected:
  // One stem per test: ctest runs the cases as parallel processes.
  std::filesystem::path stem_ =
      std::filesystem::temp_directory_path() /
      (std::string{"spindown_trace_test_"} +
       ::testing::UnitTest::GetInstance()->current_test_info()->name());
  void TearDown() override {
    std::filesystem::remove(stem_.string() + ".catalog.csv");
    std::filesystem::remove(stem_.string() + ".trace.csv");
  }
  /// Save a three-record trace, then rewrite its second data row's time.
  void small_trace_with_second_time(const std::string& time_s) {
    const Trace trace{small_catalog(), {{1.0, 0}, {2.0, 1}, {3.0, 2}}};
    trace.save(stem_);
    std::ofstream out{stem_.string() + ".trace.csv"};
    out << "time_s,file_id\n1.0,0\n" << time_s << ",1\n3.0,2\n";
  }
  /// Write both CSVs verbatim (each after its header).
  void write(const std::string& catalog_rows, const std::string& trace_rows) {
    std::ofstream{stem_.string() + ".catalog.csv"}
        << "id,size_bytes,popularity\n" << catalog_rows;
    std::ofstream{stem_.string() + ".trace.csv"}
        << "time_s,file_id\n" << trace_rows;
  }
  /// load() must throw std::runtime_error whose message holds every
  /// fragment (the file, the data row, the column and the bad field).
  void expect_load_error(const std::vector<std::string>& fragments) {
    try {
      (void)Trace::load(stem_);
      ADD_FAILURE() << "loaded";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      for (const auto& f : fragments) {
        EXPECT_NE(what.find(f), std::string::npos) << f << " not in " << what;
      }
    }
  }
};

constexpr const char* kCatalogRows = "0,10,0.5\n1,20,0.3\n2,30,0.2\n";

TEST_F(TraceIo, SaveLoadRoundTrip) {
  const Trace original{small_catalog(), {{1.0, 0}, {2.5, 2}, {7.25, 1}}};
  original.save(stem_);
  const Trace loaded = Trace::load(stem_);

  ASSERT_EQ(loaded.size(), original.size());
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    EXPECT_DOUBLE_EQ(loaded.records()[i].time, original.records()[i].time);
    EXPECT_EQ(loaded.records()[i].file, original.records()[i].file);
  }
  ASSERT_EQ(loaded.catalog().size(), original.catalog().size());
  for (std::size_t i = 0; i < loaded.catalog().size(); ++i) {
    EXPECT_EQ(loaded.catalog()[i].size, original.catalog()[i].size);
    EXPECT_NEAR(loaded.catalog()[i].popularity,
                original.catalog()[i].popularity, 1e-9);
  }
}

TEST_F(TraceIo, LoadMissingFileThrows) {
  EXPECT_THROW(Trace::load(stem_), std::runtime_error);
}

TEST_F(TraceIo, LbaColumnRoundTrips) {
  const Trace original{small_catalog(),
                       {{1.0, 0}, {2.0, 1}, {3.0, 2}},
                       {kNoLba, 123'456'789, kNoLba}};
  original.save(stem_);
  const Trace loaded = Trace::load(stem_);
  ASSERT_EQ(loaded.size(), 3u);
  EXPECT_EQ(loaded.lba(0), kNoLba); // empty cell stays "no lba"
  EXPECT_EQ(loaded.lba(1), 123'456'789u);
  EXPECT_EQ(loaded.lba(2), kNoLba);
}

TEST_F(TraceIo, TracesWithoutLbaKeepTheLegacyTwoColumnFormat) {
  const Trace original{small_catalog(), {{1.0, 0}, {2.0, 1}}};
  original.save(stem_);
  std::ifstream in{stem_.string() + ".trace.csv"};
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "time_s,file_id");
}

TEST_F(TraceIo, RejectsNonFiniteAndNegativeTimesNamingTheRow) {
  for (const std::string bad : {"nan", "inf", "-inf", "-1"}) {
    SCOPED_TRACE(bad);
    small_trace_with_second_time(bad);
    try {
      (void)Trace::load(stem_);
      ADD_FAILURE() << "time_s '" << bad << "' loaded";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("'" + bad + "'"), std::string::npos) << what;
      EXPECT_NE(what.find("row 2"), std::string::npos) << what;
    }
  }
  // Zero is the earliest legal arrival.
  small_trace_with_second_time("0");
  EXPECT_EQ(Trace::load(stem_).size(), 3u);
}

TEST_F(TraceIo, SaveLoadRoundTripIsBitExact) {
  // Doubles with no short decimal form: a fixed six-decimal rendering
  // moved most of them (and zeroed small popularities).
  std::vector<FileInfo> files{{0, 7, 1.0 / 3.0},
                              {1, 11, 1e-9},
                              {2, 13, 2.0 / 3.0 - 1e-9}};
  const Trace original{FileCatalog{files},
                       {{0.1, 0}, {1.0 / 7.0 + 1e4, 2}, {86399.123456789, 1}}};
  original.save(stem_);
  const Trace loaded = Trace::load(stem_);
  ASSERT_EQ(loaded.size(), original.size());
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    EXPECT_EQ(loaded.records()[i].time, original.records()[i].time);
    EXPECT_EQ(loaded.records()[i].file, original.records()[i].file);
  }
  for (std::size_t i = 0; i < files.size(); ++i) {
    EXPECT_EQ(loaded.catalog()[i].popularity, files[i].popularity);
  }
}

TEST_F(TraceIo, RejectsTrailingCharactersNamingTheColumn) {
  // "0.5abc,1x9" used to replay as t = 0.5, file 1.
  write(kCatalogRows, "0.5abc,1x9\n");
  expect_load_error({"time_s '0.5abc'", "data row 1", ".trace.csv"});
  write(kCatalogRows, "0.5,1x9\n");
  expect_load_error({"file_id '1x9'", "data row 1", ".trace.csv"});
}

TEST_F(TraceIo, RejectsFileIdsOfTwoToThe32) {
  // 4294967296 used to wrap to file 0.
  write(kCatalogRows, "1.0,0\n2.0,4294967296\n");
  expect_load_error({"file_id '4294967296'", "data row 2", ".trace.csv"});
  write("4294967296,10,1\n", "");
  expect_load_error({"id '4294967296'", "data row 1", ".catalog.csv"});
}

TEST_F(TraceIo, RejectsNegativeSizes) {
  // -5 used to become 2^64 - 5 and fail later, in the packer.
  write("0,10,0.5\n1,-5,0.5\n", "1.0,0\n");
  expect_load_error({"size_bytes '-5'", "data row 2", ".catalog.csv"});
}

TEST_F(TraceIo, RejectsNonNumericFieldsNamingFileRowAndColumn) {
  // These used to fail with the bare message "stod" or "stoul".
  write("0,10,0.5\n1,20,0.3\n2,30,high\n", "1.0,0\n");
  expect_load_error({"popularity 'high'", "data row 3", ".catalog.csv"});
  write(kCatalogRows, "1.0,0\nsoon,1\n");
  expect_load_error({"time_s 'soon'", "data row 2", ".trace.csv"});
  write(kCatalogRows, "1.0,0,disk\n");
  expect_load_error({"lba 'disk'", "data row 1", ".trace.csv"});
  write(kCatalogRows, "1.0\n");
  expect_load_error({"data row 1", ".trace.csv", "1 fields, want 2"});
  // Times and popularities are held to the counts' rules: no leading space,
  // '+' or hex form, which strtod would take.
  for (const std::string bad : {" 1.5", "+1.5", "0x1p3"}) {
    SCOPED_TRACE(bad);
    write("0,10,0.5\n1,20," + bad + "\n", "1.0,0\n");
    expect_load_error({"popularity '" + bad + "'", "data row 2"});
    write(kCatalogRows, bad + ",0\n");
    expect_load_error({"time_s '" + bad + "'", "data row 1", ".trace.csv"});
  }
}

TEST_F(TraceIo, RejectsNegativeOrNonFinitePopularity) {
  for (const std::string bad : {"-0.1", "nan", "inf"}) {
    SCOPED_TRACE(bad);
    write("0,10,0.5\n1,20," + bad + "\n", "1.0,0\n");
    expect_load_error({"popularity '" + bad + "'", "data row 2"});
  }
}

TEST(TraceAnalyze, BasicStatistics) {
  const Trace t{small_catalog(), {{0.0, 0}, {50.0, 0}, {100.0, 1}}};
  const auto stats = analyze(t);
  EXPECT_EQ(stats.requests, 3u);
  EXPECT_EQ(stats.distinct_files, 2u);
  EXPECT_DOUBLE_EQ(stats.duration_s, 100.0);
  EXPECT_DOUBLE_EQ(stats.arrival_rate, 0.03);
  EXPECT_DOUBLE_EQ(stats.mean_accessed_bytes,
                   (10e6 + 10e6 + 20e6) / 3.0);
  EXPECT_EQ(stats.total_catalog_bytes, util::mb(60.0));
}

TEST(TraceAnalyze, MinDisks) {
  TraceStats stats;
  stats.total_catalog_bytes = util::tb(47.5);
  EXPECT_EQ(stats.min_disks(util::gb(500.0)), 95u); // the paper's value
  EXPECT_EQ(stats.min_disks(0), 0u);
}

TEST(TraceAnalyze, EmptyTrace) {
  const auto stats = analyze(Trace{small_catalog(), {}});
  EXPECT_EQ(stats.requests, 0u);
  EXPECT_EQ(stats.distinct_files, 0u);
}

} // namespace
} // namespace spindown::workload
