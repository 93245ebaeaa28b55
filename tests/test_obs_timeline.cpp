// StatsTimeline windowing semantics (src/obs/timeline.hpp).
//
// The two load-bearing guarantees:
//   * a timeline is a stepped verifying run, so its window deltas sum to
//     exactly the SimStats of both engines (`simulate`, `simulate_fast`)
//     for every policy in the factory;
//   * under GCACHING_OBS=OFF the GC_OBS_* span macros provably compile to
//     zero code (the constexpr proof below, in the style of test_contracts).
// Plus the windowing edge cases: trace shorter than one window, window == 1,
// final partial window, auto-scaled windows, and the JSON-lines sink.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/simulator.hpp"
#include "obs/obs.hpp"
#include "obs/timeline.hpp"
#include "policies/factory.hpp"
#include "traces/synthetic.hpp"

namespace gcaching {
namespace {

using obs::StatsTimeline;

#if !defined(GCACHING_OBS)
// The zero-code proof: with GCACHING_OBS off, a function body consisting of
// every obs macro must still be a constant expression — only possible if
// each macro contributes no code at all. (Mirrors the GC_HOT_CHECK elision
// proof in test_contracts.cpp.)
constexpr int obs_free_identity(int v) {
  GC_OBS_SPAN(span, "name", "cat");
  GC_OBS_SPAN_ARG(span, "key", "value");
  GC_OBS_THREAD_NAME("name");
  return v;
}
static_assert(obs_free_identity(3) == 3,
              "GC_OBS_* must compile to nothing under GCACHING_OBS=OFF");
static_assert(!obs::kObsEnabled);
#else
static_assert(obs::kObsEnabled);
#endif

std::size_t count_lines(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::size_t lines = 0;
  std::string line;
  while (std::getline(in, line)) ++lines;
  return lines;
}

/// Records `spec` on a fresh policy, as `gcsim simulate --obs` does.
StatsTimeline record(const std::string& spec, const Workload& w,
                     std::size_t capacity, std::uint64_t window) {
  const auto policy = make_policy(spec, capacity);
  return obs::record_timeline(*w.map, w.trace, *policy, capacity, window);
}

void expect_window_invariants(const StatsTimeline& tl,
                              std::uint64_t total_accesses,
                              const SimStats& totals) {
  const std::vector<obs::TimelineWindow>& rows = tl.windows;
  if (total_accesses == 0) {
    EXPECT_TRUE(rows.empty());
    return;
  }
  const std::uint64_t w = tl.window;
  const std::uint64_t expected_rows = (total_accesses + w - 1) / w;
  ASSERT_EQ(rows.size(), expected_rows);
  std::uint64_t covered = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].start, covered) << "window " << i;
    const bool last = i + 1 == rows.size();
    EXPECT_EQ(rows[i].length, last ? total_accesses - covered : w)
        << "window " << i;
    EXPECT_EQ(rows[i].delta.accesses, rows[i].length) << "window " << i;
    covered += rows[i].length;
  }
  EXPECT_EQ(covered, total_accesses);
  EXPECT_EQ(tl.window_sum(), totals);
}

TEST(TimelineUnit, FixedWindowResolution) {
  const Workload w = traces::zipf_blocks(64, 8, 1000, 0.9, 4, 1);
  const StatsTimeline tl = record("item-lru", w, 64, 128);
  EXPECT_EQ(tl.window, 128u);
  EXPECT_EQ(tl.capacity, 64u);
}

TEST(TimelineUnit, AutoWindowScalesToTraceLength) {
  const Workload w = traces::zipf_blocks(64, 8, 4096, 0.9, 4, 1);
  EXPECT_EQ(record("item-lru", w, 32, StatsTimeline::kAutoWindow).window,
            4096u / StatsTimeline::kAutoTargetWindows);
  // Tiny traces floor at 1 instead of a zero-length window.
  const Workload tiny = traces::zipf_blocks(64, 8, 10, 0.9, 4, 1);
  EXPECT_EQ(record("item-lru", tiny, 32, StatsTimeline::kAutoWindow).window,
            1u);
}

// ---- Engine agreement --------------------------------------------------------

TEST(TimelineEngines, VerifyingEngineTotalsAreUnperturbed) {
  const Workload w = traces::zipf_blocks(64, 8, 4000, 0.9, 4, 1);
  const std::size_t capacity = 32;
  const auto plain_policy = make_policy("item-lru", capacity);
  const SimStats plain = simulate(w, *plain_policy, capacity);

  const StatsTimeline tl = record("item-lru", w, capacity, 256);
  EXPECT_EQ(tl.capacity, capacity);
  expect_window_invariants(tl, w.trace.size(), plain);
}

TEST(TimelineEngines, FastEngineTotalsAreUnperturbed) {
  const Workload w = traces::zipf_blocks(64, 8, 4000, 0.9, 4, 2);
  const std::size_t capacity = 48;
  // Policies covering both fast-engine stat flavors: plain, hit-path
  // evictions (iblp), and heavy sideload traffic (gcm, footprint).
  for (const std::string spec :
       {"item-lru", "footprint", "gcm:seed=5,sideload=3", "iblp"}) {
    SCOPED_TRACE(spec);
    const SimStats fast = simulate_fast_spec(spec, w, capacity);
    const StatsTimeline tl = record(spec, w, capacity, 333);
    expect_window_invariants(tl, w.trace.size(), fast);
  }
}

TEST(TimelineEngines, EveryPolicyWindowSumMatchesBothEngines) {
  const Workload w = traces::zipf_blocks(64, 8, 4000, 0.9, 4, 7);
  const std::size_t capacity = 48;
  for (const std::string& spec : known_policy_names()) {
    SCOPED_TRACE(spec);
    const auto policy = make_policy(spec, capacity);
    const SimStats verify = simulate(w, *policy, capacity);
    // 333 does not divide 4000, so the last window is partial.
    const SimStats sum = record(spec, w, capacity, 333).window_sum();
    EXPECT_EQ(sum, verify);
    EXPECT_EQ(sum, simulate_fast_spec(spec, w, capacity));
  }
}

TEST(TimelineEngines, WindowOfOneRecordsEveryAccess) {
  const Workload w = traces::zipf_blocks(16, 4, 50, 0.8, 2, 3);
  const StatsTimeline tl = record("item-lru", w, 8, 1);
  expect_window_invariants(tl, 50, simulate_fast_spec("item-lru", w, 8));
  ASSERT_EQ(tl.windows.size(), 50u);
  for (const obs::TimelineWindow& row : tl.windows)
    EXPECT_EQ(row.delta.accesses, 1u);
}

TEST(TimelineEngines, TraceShorterThanWindowYieldsOnePartialWindow) {
  const Workload w = traces::zipf_blocks(16, 4, 50, 0.8, 2, 4);
  const StatsTimeline tl = record("item-lru", w, 8, 10'000);
  const SimStats totals = simulate_fast_spec("item-lru", w, 8);
  expect_window_invariants(tl, 50, totals);
  ASSERT_EQ(tl.windows.size(), 1u);
  EXPECT_EQ(tl.windows[0].length, 50u);
  EXPECT_EQ(tl.windows[0].delta, totals);
}

TEST(TimelineEngines, FinalPartialWindowCoversTheRemainder) {
  const Workload w = traces::zipf_blocks(32, 8, 1000, 0.9, 3, 5);
  const StatsTimeline tl = record("block-lru", w, 24, 64);  // 15*64 + 40
  expect_window_invariants(tl, 1000, simulate_fast_spec("block-lru", w, 24));
  ASSERT_EQ(tl.windows.size(), 16u);
  EXPECT_EQ(tl.windows.back().length, 40u);
}

TEST(TimelineEngines, SinksWriteOneRowPerWindow) {
  const Workload w = traces::zipf_blocks(32, 8, 1000, 0.9, 3, 9);
  const StatsTimeline tl = record("gcm:seed=2,sideload=2", w, 24, 100);
  ASSERT_EQ(tl.windows.size(), 10u);

  const std::string jsonl = ::testing::TempDir() + "/timeline.jsonl";
  tl.write_jsonl(jsonl);
  EXPECT_EQ(count_lines(jsonl), 10u);

  std::ifstream in(jsonl);
  std::string first;
  ASSERT_TRUE(std::getline(in, first));
  EXPECT_EQ(first.rfind("{\"capacity\": 24, \"window\": 0, \"start\": 0, "
                        "\"length\": 100, ",
                        0),
            0u)
      << first;
  EXPECT_NE(first.find("\"miss_rate\": "), std::string::npos);
  EXPECT_NE(first.find("\"wasted_sideload_share\": "), std::string::npos);

  // A path that cannot be written (here a directory) throws instead of
  // silently leaving no file behind.
  EXPECT_THROW(tl.write_jsonl(::testing::TempDir()), std::runtime_error);
  // So does one that opens but rejects the buffered rows on flush.
  if (std::ifstream("/dev/full").good()) {
    EXPECT_THROW(tl.write_jsonl("/dev/full"), std::runtime_error);
  }
}

}  // namespace
}  // namespace gcaching
