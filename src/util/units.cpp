#include "util/units.h"

#include <array>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace spindown::util {

std::string format_double(double v, int max_decimals) {
  std::array<char, 64> buf{};
  std::snprintf(buf.data(), buf.size(), "%.*f", max_decimals, v);
  std::string s{buf.data()};
  if (s.find('.') != std::string::npos) {
    while (!s.empty() && s.back() == '0') s.pop_back();
    if (!s.empty() && s.back() == '.') s.pop_back();
  }
  return s;
}

std::string format_roundtrip(double v) {
  std::array<char, 40> buf{};
  // Integers print plainly ("10", not the "1e+01" a short %g would pick).
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    std::snprintf(buf.data(), buf.size(), "%.0f", v);
    return std::string{buf.data()};
  }
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf.data(), buf.size(), "%.*g", precision, v);
    if (std::strtod(buf.data(), nullptr) == v) break;
  }
  return std::string{buf.data()};
}

std::string json_quote(std::string_view s) {
  std::string out = "\"";
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          std::array<char, 8> buf{};
          std::snprintf(buf.data(), buf.size(), "\\u%04x", c);
          out += buf.data();
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::optional<double> parse_finite_double(const std::string& s) {
  if (s.empty()) return std::nullopt;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end != s.c_str() + s.size()) return std::nullopt;
  if (!std::isfinite(v)) return std::nullopt;
  return v;
}

std::optional<std::uint64_t> parse_unsigned(const std::string& s) {
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos) {
    return std::nullopt;
  }
  std::uint64_t v = 0;
  if (std::from_chars(s.data(), s.data() + s.size(), v).ec != std::errc{}) {
    return std::nullopt; // overflow
  }
  return v;
}

std::optional<Bytes> parse_bytes(const std::string& s) {
  if (s.empty()) return std::nullopt;
  // Split the trailing alphabetic suffix off the numeric part.
  std::size_t cut = s.size();
  while (cut > 0 && std::isalpha(static_cast<unsigned char>(s[cut - 1]))) {
    --cut;
  }
  std::string suffix = s.substr(cut);
  for (auto& c : suffix) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  double unit = 1.0;
  if (suffix == "k" || suffix == "kb") unit = static_cast<double>(kKB);
  else if (suffix == "m" || suffix == "mb") unit = static_cast<double>(kMB);
  else if (suffix == "g" || suffix == "gb") unit = static_cast<double>(kGB);
  else if (suffix == "t" || suffix == "tb") unit = static_cast<double>(kTB);
  else if (!suffix.empty() && suffix != "b") return std::nullopt;
  const auto v = parse_finite_double(s.substr(0, cut));
  if (!v.has_value() || *v < 0.0) return std::nullopt;
  const double bytes = *v * unit;
  if (bytes > 9.2e18) return std::nullopt; // would overflow Bytes
  return static_cast<Bytes>(bytes);
}

std::string format_bytes_spec(Bytes b) {
  if (b >= kTB && b % kTB == 0) return std::to_string(b / kTB) + "t";
  if (b >= kGB && b % kGB == 0) return std::to_string(b / kGB) + "g";
  if (b >= kMB && b % kMB == 0) return std::to_string(b / kMB) + "m";
  if (b >= kKB && b % kKB == 0) return std::to_string(b / kKB) + "k";
  return std::to_string(b);
}

std::string format_bytes(Bytes b) {
  const double v = static_cast<double>(b);
  if (b >= kTB) return format_double(v / static_cast<double>(kTB), 2) + " TB";
  if (b >= kGB) return format_double(v / static_cast<double>(kGB), 2) + " GB";
  if (b >= kMB) return format_double(v / static_cast<double>(kMB), 2) + " MB";
  if (b >= kKB) return format_double(v / static_cast<double>(kKB), 2) + " KB";
  return format_double(v, 0) + " B";
}

std::string format_seconds(Seconds s) {
  const double a = std::abs(s);
  if (a >= kHour) return format_double(s / kHour, 2) + " h";
  if (a >= kMinute) return format_double(s / kMinute, 2) + " min";
  if (a >= 1.0) return format_double(s, 2) + " s";
  return format_double(s * 1000.0, 2) + " ms";
}

} // namespace spindown::util
