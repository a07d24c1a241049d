// Fixture: a scenario key parser and one spec parse().  The mutation test
// fixture lists every name here except the key "beta", so the
// spec-coverage rule must flag exactly beta.
// (Not part of the build; consumed by determinism_lint.py --self-test.)
#include <string>

#include "mini_scenario.h"

FooSpec FooSpec::parse(const std::string& name) {
  if (name == "fast") return FooSpec{};
  if (name.rfind("slow", 0) == 0) return FooSpec{};
  throw 0;
}

void apply_key(const std::string& key, const std::string& value) {
  if (key == "alpha") {
    (void)FooSpec::parse(value);
  } else if (key == "beta") {
    (void)FooSpec::parse(value);
  }
}
