#include "workload/stream.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <functional>
#include <map>
#include <vector>

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
  const Trace trace{skewed_catalog(), {1.0, 2.0, 3.5}, {2, 0, 1}};
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
  const Trace trace{skewed_catalog(), {}, {}};
  TraceStream stream{trace};
  EXPECT_FALSE(stream.next().has_value());
}

/// A 2 000-file Zipf-like catalog: big enough that the alias table has
/// many aliased buckets.
FileCatalog zipf_catalog() {
  std::vector<FileInfo> files;
  for (FileId i = 0; i < 2000; ++i) {
    files.push_back(
        {i, util::mb(1.0), 1.0 / std::pow(static_cast<double>(i + 1), 0.8)});
  }
  return FileCatalog{files};
}

/// FNV-1a over every field of a request sequence.
std::uint64_t digest(const std::vector<Request>& reqs) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  for (const Request& r : reqs) {
    mix(r.id);
    mix(std::bit_cast<std::uint64_t>(r.arrival));
    mix(r.file);
    mix(r.lba);
  }
  return h;
}

std::vector<Request> drain_next(RequestStream& stream) {
  std::vector<Request> out;
  while (auto r = stream.next()) out.push_back(*r);
  return out;
}

/// Drain by fill() in chunks of `chunk`; every fill but the last is full.
std::vector<Request> drain_fill(RequestStream& stream, std::size_t chunk) {
  std::vector<Request> out, buf(chunk);
  for (;;) {
    const std::size_t n = stream.fill(buf);
    EXPECT_LE(n, chunk);
    out.insert(out.end(), buf.begin(), buf.begin() + n);
    if (n < chunk) break;
  }
  EXPECT_EQ(stream.fill(buf), 0u); // an ended stream stays ended
  return out;
}

void expect_same_requests(const std::vector<Request>& a,
                          const std::vector<Request>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].id, b[i].id) << what << " request " << i;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a[i].arrival),
              std::bit_cast<std::uint64_t>(b[i].arrival))
        << what << " request " << i;
    ASSERT_EQ(a[i].file, b[i].file) << what << " request " << i;
    ASSERT_EQ(a[i].lba, b[i].lba) << what << " request " << i;
  }
}

TEST(StreamFill, MatchesNextDrawForDraw) {
  const auto cat = zipf_catalog();
  std::vector<double> times;
  std::vector<FileId> files;
  std::vector<std::uint64_t> lbas;
  for (std::size_t i = 0; i < 5000; ++i) {
    times.push_back(0.25 * static_cast<double>(i));
    files.push_back(static_cast<FileId>((i * 7919) % 2000));
    lbas.push_back(i % 3 == 0 ? kNoLba : 64 * i);
  }
  const Trace trace{cat, times, files, lbas};
  struct Case {
    const char* name;
    std::function<std::unique_ptr<RequestStream>()> make;
    /// FNV-1a of the next() drain as first written (the alias draw made
    /// inside next(), one request at a time).
    std::uint64_t pinned;
  };
  const std::vector<Case> cases{
      {"poisson",
       [&] {
         return std::make_unique<ArrivalZipfStream>(
             cat, std::make_unique<PoissonArrivals>(20.0), 1000.0,
             util::Rng{11});
       },
       0x8cf6da93a0620904ULL},
      {"nhpp",
       [&] {
         return std::make_unique<ArrivalZipfStream>(
             cat,
             std::make_unique<PiecewiseRateArrivals>(
                 std::vector<RateSegment>{{0.0, 4.0}, {60.0, 40.0},
                                          {90.0, 0.5}},
                 120.0),
             1000.0, util::Rng{12});
       },
       0x5b12e1670be81039ULL},
      {"mmpp",
       [&] {
         return std::make_unique<ArrivalZipfStream>(
             cat,
             std::make_unique<MmppArrivals>(
                 MmppParams{{30.0, 2.0}, {40.0, 80.0}}),
             1000.0, util::Rng{13});
       },
       0x3dbfc33d9e4e17d3ULL},
      {"replay", [&] { return std::make_unique<TraceStream>(trace); },
       0xcf967a9ca6913c70ULL},
  };
  for (const Case& c : cases) {
    const auto by_next = [&] {
      auto stream = c.make();
      return drain_next(*stream);
    }();
    ASSERT_GT(by_next.size(), 4096u) << c.name;
    EXPECT_EQ(digest(by_next), c.pinned) << c.name << std::hex
                                         << " digest " << digest(by_next);
    // Chunk sizes 1, 7 and 4096, and one that ends the stream exactly on
    // a chunk boundary (a full fill, then an empty one).
    for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                    std::size_t{4096}, by_next.size()}) {
      auto stream = c.make();
      const auto by_fill = drain_fill(*stream, chunk);
      expect_same_requests(by_next, by_fill, c.name);
    }
  }
}

} // namespace
} // namespace spindown::workload
