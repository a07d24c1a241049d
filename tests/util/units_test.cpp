#include "util/units.h"

#include <gtest/gtest.h>

namespace spindown::util {
namespace {

TEST(Units, Constructors) {
  EXPECT_EQ(mb(1.0), 1'000'000ULL);
  EXPECT_EQ(gb(0.5), 500'000'000ULL);
  EXPECT_EQ(tb(2.0), 2'000'000'000'000ULL);
  // The paper's numbers.
  EXPECT_EQ(mb(188.0), 188'000'000ULL);
  EXPECT_EQ(gb(20.0), 20'000'000'000ULL);
}

TEST(FormatBytes, PicksUnit) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(mb(544.0)), "544 MB");
  EXPECT_EQ(format_bytes(gb(20.0)), "20 GB");
  EXPECT_EQ(format_bytes(tb(12.86)), "12.86 TB");
}

TEST(FormatSeconds, PicksUnit) {
  EXPECT_EQ(format_seconds(0.0085), "8.5 ms");
  EXPECT_EQ(format_seconds(53.3), "53.3 s");
  EXPECT_EQ(format_seconds(90.0), "1.5 min");
  EXPECT_EQ(format_seconds(7200.0), "2 h");
}

TEST(FormatDouble, TrimsTrailingZeros) {
  EXPECT_EQ(format_double(0.850, 3), "0.85");
  EXPECT_EQ(format_double(12.0, 3), "12");
  EXPECT_EQ(format_double(0.12345, 2), "0.12");
}

TEST(Units, TimeConstants) {
  EXPECT_DOUBLE_EQ(kHour, 3600.0);
  EXPECT_DOUBLE_EQ(kDay, 86400.0);
}

TEST(Units, FormatRoundtripIsShortAndExact) {
  EXPECT_EQ(format_roundtrip(10.0), "10");
  EXPECT_EQ(format_roundtrip(0.25), "0.25");
  EXPECT_EQ(format_roundtrip(53.3), "53.3");
  // Values with no short decimal form still round-trip bit for bit.
  for (const double v : {1.0 / 3.0, 0.1, 1e-7, 123456.789012345, -0.0}) {
    const auto s = format_roundtrip(v);
    const auto back = parse_finite_double(s);
    ASSERT_TRUE(back.has_value()) << s;
    EXPECT_EQ(*back, v) << s;
  }
}

TEST(Units, ParseUnsignedIsStrict) {
  EXPECT_EQ(parse_unsigned("0"), 0u);
  EXPECT_EQ(parse_unsigned("4294967296"), 4'294'967'296u);
  EXPECT_EQ(parse_unsigned("18446744073709551615"), ~std::uint64_t{0});
  for (const char* bad : {"", "-5", "+5", " 5", "5 ", "1x9", "0x10", "1e3",
                          "18446744073709551616"}) {
    EXPECT_FALSE(parse_unsigned(bad).has_value()) << bad;
  }
}

TEST(Units, ParseBytesAcceptsSiSuffixes) {
  EXPECT_EQ(parse_bytes("16g"), gb(16.0));
  EXPECT_EQ(parse_bytes("16GB"), gb(16.0));
  EXPECT_EQ(parse_bytes("0.5g"), mb(500.0));
  EXPECT_EQ(parse_bytes("512m"), mb(512.0));
  EXPECT_EQ(parse_bytes("64kb"), Bytes{64'000});
  EXPECT_EQ(parse_bytes("2t"), tb(2.0));
  EXPECT_EQ(parse_bytes("970"), Bytes{970});
  EXPECT_EQ(parse_bytes("970b"), Bytes{970});
  EXPECT_FALSE(parse_bytes("").has_value());
  EXPECT_FALSE(parse_bytes("g").has_value());
  EXPECT_FALSE(parse_bytes("16x").has_value());
  EXPECT_FALSE(parse_bytes("-4g").has_value());
  EXPECT_FALSE(parse_bytes("nan").has_value());
  EXPECT_FALSE(parse_bytes("1e30g").has_value()); // overflows Bytes
}

TEST(Units, FormatBytesSpecRoundTripsExactly) {
  EXPECT_EQ(format_bytes_spec(gb(16.0)), "16g");
  EXPECT_EQ(format_bytes_spec(mb(1500.0)), "1500m");
  EXPECT_EQ(format_bytes_spec(tb(2.0)), "2t");
  EXPECT_EQ(format_bytes_spec(Bytes{64'000}), "64k");
  EXPECT_EQ(format_bytes_spec(Bytes{1'234'567}), "1234567");
  for (const Bytes b : {Bytes{0}, Bytes{970}, mb(0.5), gb(16.0), tb(12.86),
                        Bytes{999'999'999}}) {
    const auto back = parse_bytes(format_bytes_spec(b));
    ASSERT_TRUE(back.has_value()) << format_bytes_spec(b);
    EXPECT_EQ(*back, b) << format_bytes_spec(b);
  }
}

TEST(Units, ParseFiniteDoubleIsStrict) {
  ASSERT_TRUE(parse_finite_double("3.5").has_value());
  EXPECT_DOUBLE_EQ(*parse_finite_double("3.5"), 3.5);
  EXPECT_DOUBLE_EQ(*parse_finite_double("-2e3"), -2000.0);
  EXPECT_FALSE(parse_finite_double("").has_value());
  EXPECT_FALSE(parse_finite_double("abc").has_value());
  EXPECT_FALSE(parse_finite_double("3.5x").has_value());
  EXPECT_FALSE(parse_finite_double("nan").has_value());
  EXPECT_FALSE(parse_finite_double("inf").has_value());
  EXPECT_FALSE(parse_finite_double("-infinity").has_value());
  EXPECT_FALSE(parse_finite_double("1e999").has_value());
}

} // namespace
} // namespace spindown::util
