// Timeline windowing semantics (src/obs/timeline.hpp).
//
// The two load-bearing guarantees:
//   * a timeline is a stepped verifying run harvested once per window, so
//     its last snapshot is exactly the SimStats of both engines
//     (`simulate`, `simulate_fast`) for every policy in the factory, and
//     consecutive snapshots differ by exactly one window of accesses;
//   * under GCACHING_OBS=OFF the GC_OBS_* span macros provably compile to
//     zero code (the constexpr proof below, in the style of test_contracts).
// Plus the windowing edge cases: trace shorter than one window, window == 1,
// final partial window, auto-scaled windows, and the Monitor's JSONL stream
// as the timeline file.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "core/simulator.hpp"
#include "obs/gcmon.hpp"
#include "obs/obs.hpp"
#include "obs/timeline.hpp"
#include "policies/factory.hpp"
#include "traces/synthetic.hpp"
#include "util/contracts.hpp"

namespace gcaching {
namespace {

using obs::Snapshot;

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

/// Records `spec` on a fresh policy into `monitor`, as `gcsim simulate
/// --obs` does.
std::vector<Snapshot> record(const std::string& spec, const Workload& w,
                             std::size_t capacity, std::uint64_t window,
                             obs::Monitor& monitor) {
  const auto policy = make_policy(spec, capacity);
  return obs::record_timeline(*w.map, w.trace, *policy, capacity, window,
                              monitor);
}

std::vector<Snapshot> record(const std::string& spec, const Workload& w,
                             std::size_t capacity, std::uint64_t window) {
  obs::Monitor monitor;
  return record(spec, w, capacity, window, monitor);
}

/// One snapshot per window, in seq order, each a single shard whose
/// counters never fall; consecutive snapshots differ by exactly `window`
/// accesses (the remainder last), and the last one is `totals`.
void expect_window_invariants(const std::vector<Snapshot>& snaps,
                              std::uint64_t total_accesses,
                              std::uint64_t window, std::size_t capacity,
                              const SimStats& totals) {
  if (total_accesses == 0) {
    EXPECT_TRUE(snaps.empty());
    return;
  }
  ASSERT_EQ(snaps.size(), (total_accesses + window - 1) / window);
  obs::ShardCounters prev;
  for (std::size_t i = 0; i < snaps.size(); ++i) {
    const Snapshot& snap = snaps[i];
    EXPECT_EQ(snap.seq, i);
    ASSERT_EQ(snap.shards.size(), 1u) << "window " << i;
    EXPECT_EQ(snap.shards[0], snap.totals) << "window " << i;
    EXPECT_LE(snap.totals.residency, capacity) << "window " << i;
    const bool last = i + 1 == snaps.size();
    const std::uint64_t covered = prev.stats.accesses;
    EXPECT_EQ(snap.totals.stats.accesses - covered,
              last ? total_accesses - covered : window)
        << "window " << i;
    const std::vector<obs::Counter> a = obs::counters(prev);
    const std::vector<obs::Counter> b = obs::counters(snap.totals);
    for (std::size_t f = 0; f < a.size(); ++f) {
      if (a[f].gauge) continue;
      EXPECT_LE(a[f].value, b[f].value) << a[f].key << ", window " << i;
    }
    prev = snap.totals;
  }
  EXPECT_EQ(snaps.back().totals.stats, totals);
}

TEST(TimelineUnit, FixedWindowResolution) {
  const Workload w = traces::zipf_blocks(64, 8, 1000, 0.9, 4, 1);
  const std::vector<Snapshot> snaps = record("item-lru", w, 64, 128);
  ASSERT_EQ(snaps.size(), 8u);  // 7 * 128 + 104
  EXPECT_EQ(snaps[0].totals.stats.accesses, 128u);
  for (const Snapshot& snap : snaps) EXPECT_LE(snap.totals.residency, 64u);
}

TEST(TimelineUnit, AutoWindowScalesToTraceLength) {
  const Workload w = traces::zipf_blocks(64, 8, 4096, 0.9, 4, 1);
  const std::vector<Snapshot> snaps =
      record("item-lru", w, 32, obs::kAutoWindow);
  ASSERT_EQ(snaps.size(), obs::kAutoTargetWindows);
  EXPECT_EQ(snaps[0].totals.stats.accesses, 4096u / obs::kAutoTargetWindows);
  // Tiny traces floor at 1 instead of a zero-length window.
  const Workload tiny = traces::zipf_blocks(64, 8, 10, 0.9, 4, 1);
  const std::vector<Snapshot> one =
      record("item-lru", tiny, 32, obs::kAutoWindow);
  ASSERT_EQ(one.size(), 10u);
  EXPECT_EQ(one[0].totals.stats.accesses, 1u);
}

TEST(TimelineUnit, DetachesItsSourceAndRefusesARunningMonitor) {
  const Workload w = traces::zipf_blocks(16, 4, 50, 0.8, 2, 3);
  obs::Monitor monitor;
  ASSERT_EQ(record("item-lru", w, 8, 10, monitor).size(), 5u);
  // The run is gone after the call, and so is its source.
  const Snapshot after = monitor.harvest_now();
  EXPECT_EQ(after.seq, 5u);
  EXPECT_TRUE(after.shards.empty());
  // A running monitor would read the simulation from its own thread.
  monitor.start();
  EXPECT_THROW(record("item-lru", w, 8, 10, monitor), ContractViolation);
  monitor.stop();
}

// ---- Engine agreement --------------------------------------------------------

TEST(TimelineEngines, VerifyingEngineTotalsAreUnperturbed) {
  const Workload w = traces::zipf_blocks(64, 8, 4000, 0.9, 4, 1);
  const std::size_t capacity = 32;
  const auto plain_policy = make_policy("item-lru", capacity);
  const SimStats plain = simulate(w, *plain_policy, capacity);
  expect_window_invariants(record("item-lru", w, capacity, 256),
                           w.trace.size(), 256, capacity, plain);
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
    expect_window_invariants(record(spec, w, capacity, 333), w.trace.size(),
                             333, capacity, fast);
  }
}

TEST(TimelineEngines, EveryPolicyWindowSumMatchesBothEngines) {
  const Workload w = traces::zipf_blocks(64, 8, 4000, 0.9, 4, 7);
  const std::size_t capacity = 48;
  for (const std::string& spec : known_policy_names()) {
    SCOPED_TRACE(spec);
    const auto policy = make_policy(spec, capacity);
    const SimStats verify = simulate(w, *policy, capacity);
    EXPECT_EQ(verify, simulate_fast_spec(spec, w, capacity));
    // 333 does not divide 4000, so the last window is partial.
    expect_window_invariants(record(spec, w, capacity, 333), w.trace.size(),
                             333, capacity, verify);
  }
}

TEST(TimelineEngines, WindowOfOneRecordsEveryAccess) {
  const Workload w = traces::zipf_blocks(16, 4, 50, 0.8, 2, 3);
  const std::vector<Snapshot> snaps = record("item-lru", w, 8, 1);
  expect_window_invariants(snaps, 50, 1, 8,
                           simulate_fast_spec("item-lru", w, 8));
  ASSERT_EQ(snaps.size(), 50u);
  for (std::size_t i = 0; i < snaps.size(); ++i)
    EXPECT_EQ(snaps[i].totals.stats.accesses, i + 1);
}

TEST(TimelineEngines, TraceShorterThanWindowYieldsOnePartialWindow) {
  const Workload w = traces::zipf_blocks(16, 4, 50, 0.8, 2, 4);
  const std::vector<Snapshot> snaps = record("item-lru", w, 8, 10'000);
  const SimStats totals = simulate_fast_spec("item-lru", w, 8);
  expect_window_invariants(snaps, 50, 10'000, 8, totals);
  ASSERT_EQ(snaps.size(), 1u);
  EXPECT_EQ(snaps[0].totals.stats, totals);
}

TEST(TimelineEngines, FinalPartialWindowCoversTheRemainder) {
  const Workload w = traces::zipf_blocks(32, 8, 1000, 0.9, 3, 5);
  const std::vector<Snapshot> snaps = record("block-lru", w, 24, 64);
  expect_window_invariants(snaps, 1000, 64, 24,
                           simulate_fast_spec("block-lru", w, 24));
  ASSERT_EQ(snaps.size(), 16u);  // 15 * 64 + 40
  EXPECT_EQ(snaps[15].totals.stats.accesses - snaps[14].totals.stats.accesses,
            40u);
}

TEST(TimelineEngines, SinksWriteOneRowPerWindow) {
  const Workload w = traces::zipf_blocks(32, 8, 1000, 0.9, 3, 9);
  obs::MonitorConfig cfg;
  cfg.jsonl_path = ::testing::TempDir() + "/timeline.jsonl";
  std::ofstream(cfg.jsonl_path) << "a stale line\n";
  std::vector<Snapshot> snaps;
  {
    obs::Monitor monitor(cfg);
    snaps = record("gcm:seed=2,sideload=2", w, 24, 100, monitor);
    EXPECT_EQ(monitor.export_error(), "");
  }
  ASSERT_EQ(snaps.size(), 10u);

  // The file is the Monitor's JSONL stream, started empty: one line per
  // window, each the gcmon line of that window's snapshot.
  std::ifstream in(cfg.jsonl_path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), snaps.size());
  for (std::size_t i = 0; i < lines.size(); ++i)
    EXPECT_EQ(lines[i], obs::jsonl_line(snaps[i])) << "window " << i;
  EXPECT_EQ(lines[0].rfind("{\"seq\": 0, ", 0), 0u) << lines[0];
  EXPECT_NE(lines[0].find("\"totals\": {\"accesses\": 100, "),
            std::string::npos)
      << lines[0];

  // A path that cannot be written (here a directory) is reported instead
  // of silently leaving no file behind.
  std::vector<std::string> unwritable = {::testing::TempDir()};
  // So is one that opens but rejects the buffered rows on flush.
  if (std::ifstream("/dev/full").good()) unwritable.push_back("/dev/full");
  for (const std::string& path : unwritable) {
    SCOPED_TRACE(path);
    obs::MonitorConfig bad;
    bad.jsonl_path = path;
    obs::Monitor monitor(bad);
    record("item-lru", w, 24, 100, monitor);
    EXPECT_EQ(monitor.export_error(), "cannot write " + path);
  }
}

}  // namespace
}  // namespace gcaching
