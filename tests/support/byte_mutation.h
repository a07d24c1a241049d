// byte_mutation.h — the seeded byte mutator of the hostile-input fuzz tests
// (no fuzzing library).
//
// One to three random replace / insert / delete edits of a valid input.
// Half the new bytes are uniform over 0x00-0xFF; the other half come from
// `meaningful`, the bytes the parser under test gives meaning to, which
// reaches deeper into it than uniform bytes alone.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "util/rng.h"

namespace spindown::test_support {

inline std::string mutate_bytes(std::string s, std::string_view meaningful,
                                util::Rng& rng) {
  const auto random_byte = [&] {
    if (rng.uniform_int(0, 1) == 0) {
      return static_cast<char>(rng.uniform_int(0, 255));
    }
    return meaningful[rng.uniform_int(0, meaningful.size() - 1)];
  };
  const auto edits = rng.uniform_int(1, 3);
  for (std::uint64_t e = 0; e < edits; ++e) {
    const auto op = rng.uniform_int(0, 2);
    if (s.empty() || op == 1) {
      s.insert(s.begin() + static_cast<std::ptrdiff_t>(
                               rng.uniform_int(0, s.size())),
               random_byte());
    } else if (op == 0) {
      s[rng.uniform_int(0, s.size() - 1)] = random_byte();
    } else {
      s.erase(rng.uniform_int(0, s.size() - 1), 1);
    }
  }
  return s;
}

} // namespace spindown::test_support
