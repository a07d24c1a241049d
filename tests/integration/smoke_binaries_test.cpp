// smoke_binaries_test.cpp — build-surface smoke test.
//
// Asserts that every bench and example binary produced by this build exits 0
// when invoked with --help, that the quickstart example completes a tiny
// end-to-end simulation, and that policy_explorer prints its golden table
// byte for byte.  The binary directories and names are injected by
// tests/CMakeLists.txt at configure time.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace {

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::stringstream ss{csv};
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

// Runs a command line, discarding stdout, and returns the process exit
// status (or -1 if it could not be spawned / died on a signal).
int run(const std::string& command) {
  const std::string quiet = command + " > /dev/null 2>&1";
  const int raw = std::system(quiet.c_str());
  if (raw == -1) return -1;
#if defined(WIFEXITED)
  if (!WIFEXITED(raw)) return -1;
  return WEXITSTATUS(raw);
#else
  return raw;
#endif
}

// Runs a command line and returns its stdout (empty if it could not be
// spawned).
std::string capture(const std::string& command) {
  std::string out;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return out;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, pipe)) > 0) out.append(buf, n);
  pclose(pipe);
  return out;
}

class SmokeTest : public ::testing::TestWithParam<std::string> {};

TEST_P(SmokeTest, HelpExitsZero) {
  const std::string& path = GetParam();
  EXPECT_EQ(run("\"" + path + "\" --help"), 0) << "binary: " << path;
}

std::vector<std::string> all_binaries() {
  std::vector<std::string> paths;
  for (const auto& name : split_csv(SPINDOWN_BENCH_BINARIES)) {
    paths.push_back(std::string{SPINDOWN_BENCH_BIN_DIR} + "/" + name);
  }
  for (const auto& name : split_csv(SPINDOWN_EXAMPLE_BINARIES)) {
    paths.push_back(std::string{SPINDOWN_EXAMPLE_BIN_DIR} + "/" + name);
  }
  return paths;
}

std::string test_name(const ::testing::TestParamInfo<std::string>& info) {
  const auto slash = info.param.find_last_of('/');
  std::string name =
      slash == std::string::npos ? info.param : info.param.substr(slash + 1);
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(Binaries, SmokeTest,
                         ::testing::ValuesIn(all_binaries()), test_name);

TEST(QuickstartSmoke, TinyEndToEndRunExitsZero) {
  // 500 files is the smallest round catalog whose hottest Zipf file still
  // fits one disk's service capacity (the normalizer rejects tinier ones).
  const std::string quickstart =
      std::string{SPINDOWN_EXAMPLE_BIN_DIR} + "/quickstart";
  EXPECT_EQ(run("\"" + quickstart + "\" --files 500 --rate 1.0 --seed 1"), 0);
}

TEST(PolicyExplorerGolden, Gaps200Batch1MatchesGolden) {
  // Every number in the table goes through the disk's response accounting;
  // the golden file pins them all.
  const std::string explorer =
      std::string{SPINDOWN_EXAMPLE_BIN_DIR} + "/policy_explorer";
  std::ifstream golden{std::string{SPINDOWN_GOLDEN_DIR} +
                       "/policy_explorer_gaps200_batch1.txt"};
  ASSERT_TRUE(golden.good());
  std::stringstream want;
  want << golden.rdbuf();
  EXPECT_EQ(capture("\"" + explorer + "\" --gaps 200 --scheduler batch1"),
            want.str());
}

}  // namespace
