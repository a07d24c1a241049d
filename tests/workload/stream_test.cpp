#include "workload/stream.h"

#include <gtest/gtest.h>

#include <map>

#include "util/units.h"
#include "workload/catalog.h"

namespace spindown::workload {
namespace {

FileCatalog skewed_catalog() {
  std::vector<FileInfo> files{
      {0, util::mb(1.0), 0.7},
      {1, util::mb(2.0), 0.2},
      {2, util::mb(3.0), 0.1},
  };
  return FileCatalog{files};
}

/// Table 1's generator: Poisson(rate) arrivals, Zipf file choice.
ArrivalZipfStream poisson_stream(const FileCatalog& cat, double rate,
                                 double horizon, std::uint64_t seed) {
  return ArrivalZipfStream{cat, std::make_unique<PoissonArrivals>(rate),
                           horizon, util::Rng{seed}};
}

TEST(ArrivalZipfStream, ArrivalsAreOrderedAndBounded) {
  const auto cat = skewed_catalog();
  auto stream = poisson_stream(cat, 5.0, 100.0, 1);
  double prev = 0.0;
  std::uint64_t expected_id = 0;
  while (auto r = stream.next()) {
    EXPECT_GE(r->arrival, prev);
    EXPECT_LT(r->arrival, 100.0);
    EXPECT_EQ(r->id, expected_id++);
    EXPECT_LT(r->file, 3u);
    prev = r->arrival;
  }
  EXPECT_FALSE(stream.next().has_value()); // exhausted stays exhausted
}

TEST(ArrivalZipfStream, RequestCountNearRateTimesHorizon) {
  const auto cat = skewed_catalog();
  auto stream = poisson_stream(cat, 5.0, 2000.0, 2);
  std::size_t count = 0;
  while (stream.next()) ++count;
  EXPECT_NEAR(static_cast<double>(count), 10000.0, 350.0); // ~3 sigma
}

TEST(ArrivalZipfStream, FileChoiceFollowsPopularity) {
  const auto cat = skewed_catalog();
  auto stream = poisson_stream(cat, 50.0, 2000.0, 3);
  std::map<FileId, int> counts;
  int total = 0;
  while (auto r = stream.next()) {
    ++counts[r->file];
    ++total;
  }
  EXPECT_NEAR(static_cast<double>(counts[0]) / total, 0.7, 0.02);
  EXPECT_NEAR(static_cast<double>(counts[1]) / total, 0.2, 0.02);
  EXPECT_NEAR(static_cast<double>(counts[2]) / total, 0.1, 0.02);
}

TEST(ArrivalZipfStream, DeterministicGivenSeed) {
  const auto cat = skewed_catalog();
  auto a = poisson_stream(cat, 5.0, 50.0, 42);
  auto b = poisson_stream(cat, 5.0, 50.0, 42);
  while (true) {
    auto ra = a.next();
    auto rb = b.next();
    ASSERT_EQ(ra.has_value(), rb.has_value());
    if (!ra) break;
    EXPECT_DOUBLE_EQ(ra->arrival, rb->arrival);
    EXPECT_EQ(ra->file, rb->file);
  }
}

TEST(ArrivalZipfStream, EmptyCatalogThrows) {
  const FileCatalog empty;
  EXPECT_THROW(poisson_stream(empty, 1.0, 10.0, 1), std::invalid_argument);
}

TEST(TraceStream, ReplaysVerbatim) {
  const Trace trace{skewed_catalog(), {{1.0, 2}, {2.0, 0}, {3.5, 1}}};
  TraceStream stream{trace};
  auto r0 = stream.next();
  ASSERT_TRUE(r0.has_value());
  EXPECT_DOUBLE_EQ(r0->arrival, 1.0);
  EXPECT_EQ(r0->file, 2u);
  EXPECT_EQ(r0->id, 0u);
  auto r1 = stream.next();
  EXPECT_EQ(r1->file, 0u);
  auto r2 = stream.next();
  EXPECT_EQ(r2->file, 1u);
  EXPECT_FALSE(stream.next().has_value());
}

TEST(TraceStream, EmptyTrace) {
  const Trace trace{skewed_catalog(), {}};
  TraceStream stream{trace};
  EXPECT_FALSE(stream.next().has_value());
}

} // namespace
} // namespace spindown::workload
