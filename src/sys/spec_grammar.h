// spec_grammar.h — shared internal helpers of the spec-key parsers
// (PolicySpec/SchedulerSpec/WorkloadSpec/CacheSpec in experiment/system and
// CatalogSpec/PlacementSpec/ScenarioSpec in scenario).  One tokenizer for
// the "name(a,b,...)" shell and one strict numeric parse each, so the
// grammars cannot drift apart.  Every failure is std::invalid_argument —
// the single exception type the spec parse() contracts document.
#pragma once

#include <stdexcept>
#include <string>
#include <vector>

#include "util/units.h"

namespace spindown::sys::detail {

inline std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  for (;;) {
    const auto next = s.find(sep, pos);
    out.push_back(s.substr(pos, next - pos));
    if (next == std::string::npos) return out;
    pos = next + 1;
  }
}

/// The "name(a,b,...)" shell shared by every call-style spec key.
/// `who` names the throwing spec type in error messages.
inline std::vector<std::string> parse_call(const std::string& name,
                                           const std::string& head,
                                           const std::string& who) {
  if (name.size() < head.size() + 2 ||
      name.compare(0, head.size(), head) != 0 || name[head.size()] != '(' ||
      name.back() != ')') {
    throw std::invalid_argument{who + ": malformed '" + name + "'"};
  }
  return split(name.substr(head.size() + 1, name.size() - head.size() - 2),
               ',');
}

inline double parse_number(const std::string& s, const std::string& context,
                           const std::string& who) {
  const auto v = util::parse_finite_double(s);
  if (!v.has_value()) {
    throw std::invalid_argument{who + ": bad number '" + s + "' in " +
                                context};
  }
  return *v;
}

/// Strict decimal std::uint64_t parse (util::parse_unsigned): signs,
/// garbage and overflow throw std::invalid_argument.
inline std::uint64_t parse_unsigned(const std::string& s,
                                    const std::string& context,
                                    const std::string& who) {
  const auto v = util::parse_unsigned(s);
  if (!v.has_value()) {
    throw std::invalid_argument{who + ": bad count '" + s + "' in " +
                                context};
  }
  return *v;
}

} // namespace spindown::sys::detail
