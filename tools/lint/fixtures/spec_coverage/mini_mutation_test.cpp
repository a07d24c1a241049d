// Fixture: one-token mutations naming alpha, fast and slow.  The key beta
// is mentioned only in this comment, which must not count as coverage.
// (Not part of the build; consumed by determinism_lint.py --self-test.)
#include <string>
#include <vector>

const std::vector<std::string> kMutations{"alpha=fast", "alpha=slow(2)"};
