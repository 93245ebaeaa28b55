// The benches' shared provenance check (bench/bench_common.hpp): which
// `--compare` baselines warn_if_stale_baseline flags, as the pure
// baseline_problems decides it, and the THP mode stamp's parse.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench_common.hpp"

namespace gcaching::bench {
namespace {

TEST(BaselineProblems, SameCleanCommitAndMachineIsComparable) {
  EXPECT_TRUE(
      baseline_problems({"76fba46", "host", ""}, {"76fba46", "host", ""})
          .empty());
}

TEST(BaselineProblems, UnstampedBaselineIsOneProblem) {
  const std::vector<std::string> p =
      baseline_problems({"", "", ""}, {"76fba46", "host", ""});
  ASSERT_EQ(p.size(), 1u);
  EXPECT_NE(p[0].find("no git_commit/machine stamp"), std::string::npos);
  EXPECT_EQ(
      baseline_problems({"76fba46", "", ""}, {"76fba46", "host", ""}).size(),
      1u);
}

TEST(BaselineProblems, CommitAndMachineDriftAreEachNamed) {
  const std::vector<std::string> p =
      baseline_problems({"abc1234", "old-host", ""}, {"76fba46", "host", ""});
  ASSERT_EQ(p.size(), 2u);
  EXPECT_EQ(p[0], "baseline commit abc1234 != current 76fba46");
  EXPECT_EQ(p[1], "baseline machine old-host != current host");
}

TEST(BaselineProblems, DirtyBaselineIsFlaggedEvenAtTheCurrentHash) {
  // Two runs from uncommitted trees on one HEAD share a stamp but need
  // not share code.
  const std::vector<std::string> same = baseline_problems(
      {"76fba46-dirty", "host", ""}, {"76fba46-dirty", "host", ""});
  ASSERT_EQ(same.size(), 1u);
  EXPECT_EQ(same[0],
            "baseline commit 76fba46-dirty was measured with uncommitted "
            "changes");
  const std::vector<std::string> clean_now = baseline_problems(
      {"76fba46-dirty", "host", ""}, {"76fba46", "host", ""});
  ASSERT_EQ(clean_now.size(), 2u);
  EXPECT_EQ(clean_now[1], "baseline commit 76fba46-dirty != current 76fba46");
}

TEST(BaselineProblems, DirtyCurrentRunAloneIsACommitMismatch) {
  const std::vector<std::string> p = baseline_problems(
      {"76fba46", "host", ""}, {"76fba46-dirty", "host", ""});
  ASSERT_EQ(p.size(), 1u);
  EXPECT_EQ(p[0], "baseline commit 76fba46 != current 76fba46-dirty");
}

TEST(BaselineProblems, ThpModeMismatchIsNamedWhenBothSidesCarryIt) {
  const std::vector<std::string> p = baseline_problems(
      {"76fba46", "host", "never"}, {"76fba46", "host", "madvise"});
  ASSERT_EQ(p.size(), 1u);
  EXPECT_EQ(p[0], "baseline THP mode never != current madvise");
  EXPECT_TRUE(baseline_problems({"76fba46", "host", "madvise"},
                                {"76fba46", "host", "madvise"})
                  .empty());
}

TEST(BaselineProblems, ThpModeIsIgnoredWhenEitherSideLacksIt) {
  // Baselines written before the stamp existed stay comparable.
  EXPECT_TRUE(baseline_problems({"76fba46", "host", ""},
                                {"76fba46", "host", "madvise"})
                  .empty());
  EXPECT_TRUE(baseline_problems({"76fba46", "host", "never"},
                                {"76fba46", "host", ""})
                  .empty());
}

TEST(ThpMode, ReadsTheBracketedWord) {
  EXPECT_EQ(thp_mode_of("always [madvise] never"), "madvise");
  EXPECT_EQ(thp_mode_of("[always] madvise never\n"), "always");
  EXPECT_EQ(thp_mode_of("always madvise [never]"), "never");
}

TEST(ThpMode, UnreadableOrUnbracketedLineIsUnknown) {
  EXPECT_EQ(thp_mode_of(""), "unknown");
  EXPECT_EQ(thp_mode_of("always madvise never"), "unknown");
  EXPECT_EQ(thp_mode_of("always [madvise never"), "unknown");
  EXPECT_EQ(thp_mode_of("always [] never"), "unknown");
  EXPECT_EQ(thp_mode_of("] always [madvise"), "unknown");
}

TEST(ThpMode, HostModeIsAWordOrUnknown) {
  const std::string mode = thp_mode();
  EXPECT_FALSE(mode.empty());
  EXPECT_EQ(mode.find_first_of("[] \n"), std::string::npos) << mode;
}

TEST(Provenance, JsonLinesRoundTripThroughTheReader) {
  const std::string lines = provenance_json_lines();
  Provenance read;
  std::size_t begin = 0;
  for (std::size_t end; (end = lines.find('\n', begin)) != std::string::npos;
       begin = end + 1)
    read_provenance_line(lines.substr(begin, end - begin), read);
  const Provenance now = current_provenance();
  EXPECT_EQ(read.machine, now.machine);
  EXPECT_EQ(read.thp, now.thp);
  EXPECT_FALSE(read.git_commit.empty());
}

}  // namespace
}  // namespace gcaching::bench
