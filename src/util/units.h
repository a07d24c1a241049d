// units.h — unit conventions and formatting helpers used across the library.
//
// The paper (and disk vendors) use SI units: 1 MB = 1e6 bytes, the Seagate
// ST3500630AS is "500 GB" = 5e11 bytes and transfers 72 MB/s = 7.2e7 B/s.
// We therefore keep *all* byte quantities in SI and all times in seconds
// (double).  Energies are Joules, powers are Watts.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace spindown::util {

/// Bytes are exact; use a 64-bit unsigned integer everywhere.
using Bytes = std::uint64_t;

/// Simulated time, wall-clock seconds since simulation start.
using Seconds = double;

/// Power in Watts and energy in Joules (1 J = 1 W * 1 s).
using Watts = double;
using Joules = double;

inline constexpr Bytes kKB = 1'000ULL;
inline constexpr Bytes kMB = 1'000'000ULL;
inline constexpr Bytes kGB = 1'000'000'000ULL;
inline constexpr Bytes kTB = 1'000'000'000'000ULL;

inline constexpr Seconds kMinute = 60.0;
inline constexpr Seconds kHour = 3600.0;
inline constexpr Seconds kDay = 86400.0;

/// Logical-block size for disk geometry (LBA extents).  512-byte sectors:
/// the unit real drives address, small enough that every file in the
/// paper's catalogs spans many blocks.
inline constexpr Bytes kBlockBytes = 512ULL;

/// Extent length of a byte count in kBlockBytes blocks (ceiling).
constexpr std::uint64_t blocks_of(Bytes bytes) {
  return (bytes + kBlockBytes - 1) / kBlockBytes;
}

/// Convenience constructors so call sites read like the paper's tables.
constexpr Bytes mb(double v) {
  return static_cast<Bytes>(v * static_cast<double>(kMB));
}
constexpr Bytes gb(double v) {
  return static_cast<Bytes>(v * static_cast<double>(kGB));
}
constexpr Bytes tb(double v) {
  return static_cast<Bytes>(v * static_cast<double>(kTB));
}

/// "544 MB", "12.86 TB", "970 B" — human-readable SI formatting.
std::string format_bytes(Bytes b);

/// "53.3 s", "1.5 h", "12 ms" — pick the natural time unit.
std::string format_seconds(Seconds s);

/// Fixed-precision double without trailing-zero noise ("0.85", "12").
std::string format_double(double v, int max_decimals = 3);

/// Shortest decimal string that parses back to exactly `v` ("10", "0.25",
/// "0.3333333333333333").  For the PolicySpec/WorkloadSpec key round-trip:
/// parse(spec()) must reproduce the value bit for bit.
std::string format_roundtrip(double v);

/// `s` as a JSON string literal, surrounding quotes included: quotes and
/// backslashes escaped, control characters as \n, \t or \u00XX.
std::string json_quote(std::string_view s);

/// Strict numeric parse: the whole string must be one finite double;
/// nullopt on trailing garbage, empty input, "nan"/"inf", or overflow.
/// The shared backend of every spec-key parser (a NaN threshold or rate
/// would corrupt a disk's timeline / hang the arrival loop downstream).
std::optional<double> parse_finite_double(const std::string& s);

/// Strict decimal parse of a std::uint64_t: digits only (no sign, space or
/// trailing garbage); nullopt on empty input or overflow.  The backend of
/// every count in a spec key or a trace CSV.
std::optional<std::uint64_t> parse_unsigned(const std::string& s);

/// Byte count with an optional SI suffix — "16g", "0.5gb", "4096", "100m",
/// "64kb", "970b" (suffix case-insensitive; 1 k = 1e3 as everywhere in this
/// tree).  nullopt on garbage, negatives, or non-finite values.  The backend
/// of CacheSpec/CatalogSpec capacity keys.
std::optional<Bytes> parse_bytes(const std::string& s);

/// Canonical spec-key rendering of a byte count such that
/// parse_bytes(format_bytes_spec(b)) == b exactly: the largest SI suffix
/// that divides b evenly ("16g", "1500m", "970"), plain digits otherwise.
std::string format_bytes_spec(Bytes b);

} // namespace spindown::util
