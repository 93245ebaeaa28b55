// The benches' shared provenance check (bench/bench_common.hpp): which
// `--compare` baselines warn_if_stale_baseline flags, as the pure
// baseline_problems decides it.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench_common.hpp"

namespace gcaching::bench {
namespace {

TEST(BaselineProblems, SameCleanCommitAndMachineIsComparable) {
  EXPECT_TRUE(baseline_problems("76fba46", "host", "76fba46", "host").empty());
}

TEST(BaselineProblems, UnstampedBaselineIsOneProblem) {
  const std::vector<std::string> p =
      baseline_problems("", "", "76fba46", "host");
  ASSERT_EQ(p.size(), 1u);
  EXPECT_NE(p[0].find("no git_commit/machine stamp"), std::string::npos);
  EXPECT_EQ(baseline_problems("76fba46", "", "76fba46", "host").size(), 1u);
}

TEST(BaselineProblems, CommitAndMachineDriftAreEachNamed) {
  const std::vector<std::string> p =
      baseline_problems("abc1234", "old-host", "76fba46", "host");
  ASSERT_EQ(p.size(), 2u);
  EXPECT_EQ(p[0], "baseline commit abc1234 != current 76fba46");
  EXPECT_EQ(p[1], "baseline machine old-host != current host");
}

TEST(BaselineProblems, DirtyBaselineIsFlaggedEvenAtTheCurrentHash) {
  // Two runs from uncommitted trees on one HEAD share a stamp but need
  // not share code.
  const std::vector<std::string> same =
      baseline_problems("76fba46-dirty", "host", "76fba46-dirty", "host");
  ASSERT_EQ(same.size(), 1u);
  EXPECT_EQ(same[0],
            "baseline commit 76fba46-dirty was measured with uncommitted "
            "changes");
  const std::vector<std::string> clean_now =
      baseline_problems("76fba46-dirty", "host", "76fba46", "host");
  ASSERT_EQ(clean_now.size(), 2u);
  EXPECT_EQ(clean_now[1], "baseline commit 76fba46-dirty != current 76fba46");
}

TEST(BaselineProblems, DirtyCurrentRunAloneIsACommitMismatch) {
  const std::vector<std::string> p =
      baseline_problems("76fba46", "host", "76fba46-dirty", "host");
  ASSERT_EQ(p.size(), 1u);
  EXPECT_EQ(p[0], "baseline commit 76fba46 != current 76fba46-dirty");
}

}  // namespace
}  // namespace gcaching::bench
