// TraceLog / SpanGuard semantics and the Chrome trace-event schema
// validator (src/obs/trace_event.hpp).
//
// The validator is held to both directions: every trace this module exports
// must pass, and hand-broken fixtures (invalid JSON, missing keys,
// non-monotonic timestamps, unmatched B/E, overlapping non-nested X spans)
// must each fail with a descriptive message. The sweep integration tests
// check the actual instrumentation sites: a run_sweep under an installed
// log yields named pool workers and exactly one span per row, cell,
// block-id precompute and stack-column pass — and records nothing at all
// when no log is installed.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/obs.hpp"
#include "sim/runner.hpp"
#include "traces/synthetic.hpp"

namespace gcaching {
namespace {

using obs::SpanGuard;
using obs::TraceLog;
using obs::validate_chrome_trace;

std::string exported(const TraceLog& log) {
  std::ostringstream os;
  log.write_chrome_trace(os);
  return os.str();
}

TEST(TraceLogUnit, CompleteEventsCarrySpanData) {
  TraceLog log;
  log.complete("alpha", "cat1", 100, 400, {{"k", "v"}});
  log.complete("beta", "cat2", 500, 500);  // zero-length span is legal
  ASSERT_EQ(log.size(), 2u);
  const std::vector<obs::TraceEvent> events = log.events();
  EXPECT_EQ(events[0].name, "alpha");
  EXPECT_EQ(events[0].ph, 'X');
  EXPECT_EQ(events[0].ts_ns, 100);
  EXPECT_EQ(events[0].dur_ns, 300);
  ASSERT_EQ(events[0].args.size(), 1u);
  EXPECT_EQ(events[0].args[0].first, "k");
  EXPECT_EQ(events[1].dur_ns, 0);
  // Same thread recorded both: one dense tid.
  EXPECT_EQ(events[0].tid, events[1].tid);
}

TEST(TraceLogUnit, ThreadNamesAreIdempotent) {
  TraceLog log;
  log.set_thread_name("worker");
  log.set_thread_name("worker");  // re-announcement records nothing
  EXPECT_EQ(log.size(), 1u);
  log.set_thread_name("renamed");
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(log.events()[0].ph, 'M');
}

TEST(TraceLogUnit, ThreadsGetDenseDistinctTids) {
  TraceLog log;
  log.complete("main-span", "t", 0, 1);
  std::thread other([&log] { log.complete("other-span", "t", 2, 3); });
  other.join();
  const std::vector<obs::TraceEvent> events = log.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_NE(events[0].tid, events[1].tid);
  EXPECT_LT(events[0].tid, 2u);
  EXPECT_LT(events[1].tid, 2u);
}

TEST(TraceLogUnit, ExportValidatesAndSortsOutOfOrderRecords) {
  TraceLog log;
  // Recorded out of order and overlapping-but-nested; export must sort by
  // start (longer span first on ties) into a validator-clean file.
  log.complete("inner", "t", 200, 300);
  log.complete("outer", "t", 100, 500);
  log.complete("tie-short", "t", 100, 120);
  log.set_thread_name("main");
  const std::string json = exported(log);
  EXPECT_EQ(validate_chrome_trace(json), "") << json;
  // "outer" (dur 400) must precede "tie-short" (dur 20) at ts=100.
  EXPECT_LT(json.find("\"outer\""), json.find("\"tie-short\""));
}

TEST(TraceLogUnit, ExportEscapesJsonStrings) {
  TraceLog log;
  log.complete("quote\"back\\slash", "t", 0, 1, {{"newline", "a\nb"}});
  const std::string json = exported(log);
  EXPECT_EQ(validate_chrome_trace(json), "") << json;
  EXPECT_NE(json.find("quote\\\"back\\\\slash"), std::string::npos);
  EXPECT_NE(json.find("a\\nb"), std::string::npos);
}

TEST(TraceLogUnit, FileExportRoundTrips) {
  TraceLog log;
  log.complete("span", "t", 0, 1000);
  const std::string path = ::testing::TempDir() + "/trace.json";
  log.write_chrome_trace_file(path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(validate_chrome_trace(buffer.str()), "");
}

TEST(TraceLogUnit, FileExportFailureThrowsNamingThePath) {
  TraceLog log;
  log.complete("span", "t", 0, 1000);
  // A directory cannot be opened. /dev/full opens but fails every write,
  // which only shows once the buffered trace is flushed.
  std::vector<std::string> paths = {::testing::TempDir()};
  if (std::ifstream("/dev/full").good()) paths.emplace_back("/dev/full");
  for (const std::string& path : paths) {
    try {
      log.write_chrome_trace_file(path);
      ADD_FAILURE() << "no exception for " << path;
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), "cannot write " + path);
    }
  }
}

// ---- Validator negatives ----------------------------------------------------

TEST(TraceValidator, AcceptsMinimalHandWrittenTraces) {
  EXPECT_EQ(validate_chrome_trace(R"({"traceEvents": []})"), "");
  EXPECT_EQ(validate_chrome_trace(
                R"({"traceEvents": [
        {"name": "a", "ph": "B", "ts": 1, "pid": 1, "tid": 0},
        {"name": "a", "ph": "E", "ts": 2, "pid": 1, "tid": 0},
        {"name": "m", "ph": "M", "ts": 0, "pid": 1, "tid": 0}
      ]})"),
            "");
}

TEST(TraceValidator, RejectsMalformedInput) {
  EXPECT_NE(validate_chrome_trace("not json at all"), "");
  EXPECT_NE(validate_chrome_trace("[1, 2, 3]"), "");  // not an object
  EXPECT_NE(validate_chrome_trace(R"({"events": []})"), "");
  EXPECT_NE(validate_chrome_trace(R"({"traceEvents": [42]})"), "");
  EXPECT_NE(validate_chrome_trace(R"({"traceEvents": [{}]})"), "");
  // Truncated file (the crash-mid-write shape).
  EXPECT_NE(validate_chrome_trace(R"({"traceEvents": [{"name": "a")"), "");
  // A number with text left over (it once read as 1).
  EXPECT_NE(validate_chrome_trace(R"({"traceEvents": [
        {"name": "a", "ph": "X", "ts": 1-2, "dur": 1, "pid": 1, "tid": 0}]})"),
            "");
}

TEST(TraceValidator, RejectsSchemaViolations) {
  // Missing ph.
  EXPECT_NE(validate_chrome_trace(
                R"({"traceEvents": [{"name": "a", "ts": 1, "pid": 1, "tid": 0}]})"),
            "");
  // X without dur.
  EXPECT_NE(
      validate_chrome_trace(
          R"({"traceEvents": [{"name": "a", "ph": "X", "ts": 1, "pid": 1, "tid": 0}]})"),
      "");
  // Unsupported phase letter.
  EXPECT_NE(
      validate_chrome_trace(
          R"({"traceEvents": [{"name": "a", "ph": "Q", "ts": 1, "pid": 1, "tid": 0}]})"),
      "");
}

TEST(TraceValidator, RejectsNonMonotonicTimestampsWithinThread) {
  const std::string bad = R"({"traceEvents": [
    {"name": "a", "ph": "X", "ts": 10, "dur": 1, "pid": 1, "tid": 0},
    {"name": "b", "ph": "X", "ts": 5, "dur": 1, "pid": 1, "tid": 0}
  ]})";
  EXPECT_NE(validate_chrome_trace(bad), "");
  // The same timestamps on different threads are fine.
  const std::string ok = R"({"traceEvents": [
    {"name": "a", "ph": "X", "ts": 10, "dur": 1, "pid": 1, "tid": 0},
    {"name": "b", "ph": "X", "ts": 5, "dur": 1, "pid": 1, "tid": 1}
  ]})";
  EXPECT_EQ(validate_chrome_trace(ok), "");
}

TEST(TraceValidator, RejectsOverlappingNonNestedSpans) {
  const std::string bad = R"({"traceEvents": [
    {"name": "a", "ph": "X", "ts": 0, "dur": 10, "pid": 1, "tid": 0},
    {"name": "b", "ph": "X", "ts": 5, "dur": 10, "pid": 1, "tid": 0}
  ]})";
  EXPECT_NE(validate_chrome_trace(bad), "");
  // Proper nesting and back-to-back spans both pass.
  const std::string ok = R"({"traceEvents": [
    {"name": "a", "ph": "X", "ts": 0, "dur": 10, "pid": 1, "tid": 0},
    {"name": "b", "ph": "X", "ts": 2, "dur": 3, "pid": 1, "tid": 0},
    {"name": "c", "ph": "X", "ts": 10, "dur": 4, "pid": 1, "tid": 0}
  ]})";
  EXPECT_EQ(validate_chrome_trace(ok), "");
}

TEST(TraceValidator, RejectsUnmatchedBeginEnd) {
  EXPECT_NE(
      validate_chrome_trace(
          R"({"traceEvents": [{"name": "a", "ph": "E", "ts": 1, "pid": 1, "tid": 0}]})"),
      "");
  EXPECT_NE(
      validate_chrome_trace(
          R"({"traceEvents": [{"name": "a", "ph": "B", "ts": 1, "pid": 1, "tid": 0}]})"),
      "");
}

// ---- SpanGuard and installation ---------------------------------------------

TEST(SpanGuardUnit, IdleWithoutInstalledLog) {
  ASSERT_EQ(obs::trace_log(), nullptr);
  SpanGuard span("orphan", "t");
  EXPECT_FALSE(span.active());
  span.arg("k", "v");  // must be a harmless no-op
}

TEST(SpanGuardUnit, RecordsOnDestructionWithArgs) {
  TraceLog log;
  {
    obs::TraceLogScope scope(log);
    EXPECT_EQ(obs::trace_log(), &log);
    SpanGuard span("unit-span", "test");
    EXPECT_TRUE(span.active());
    span.arg("answer", "42");
    EXPECT_EQ(log.size(), 0u);  // nothing until the guard closes
  }
  EXPECT_EQ(obs::trace_log(), nullptr);  // scope restored
  ASSERT_EQ(log.size(), 1u);
  const obs::TraceEvent e = log.events()[0];
  EXPECT_EQ(e.name, "unit-span");
  EXPECT_EQ(e.cat, "test");
  EXPECT_GE(e.dur_ns, 0);
  ASSERT_EQ(e.args.size(), 1u);
  EXPECT_EQ(e.args[0].second, "42");
}

// ---- Sweep / thread-pool integration ----------------------------------------

sim::SweepSpec small_sweep(const std::vector<Workload>& workloads) {
  sim::SweepSpec spec;
  spec.workloads = &workloads;
  spec.policy_specs = {"item-lru", "item-fifo", "block-fifo"};
  spec.capacities = {8, 16, 32};
  spec.threads = 2;
  return spec;
}

std::size_t count_spans(const TraceLog& log, const std::string& name) {
  const std::vector<obs::TraceEvent> events = log.events();
  return static_cast<std::size_t>(
      std::count_if(events.begin(), events.end(),
                    [&](const obs::TraceEvent& e) { return e.name == name; }));
}

TEST(SweepObsIntegration, TraceCapturesTheSchedule) {
  const std::vector<Workload> workloads = {
      traces::zipf_blocks(32, 8, 1500, 0.9, 3, 1),
      traces::zipf_blocks(32, 8, 1500, 0.8, 3, 2)};
  const sim::SweepSpec spec = small_sweep(workloads);
  // item-lru takes the stack pass: one task per workload. item-fifo and
  // block-fifo run one task per cell.
  const std::size_t stack_rows = workloads.size();
  const std::size_t cell_tasks = workloads.size() * 2 * spec.capacities.size();

  TraceLog log;
  std::vector<sim::SweepCell> cells;
  {
    obs::TraceLogScope tscope(log);
    cells = run_sweep(spec);
  }
  ASSERT_EQ(cells.size(), workloads.size() * spec.policy_specs.size() *
                              spec.capacities.size());

  if (!obs::kObsEnabled) {
    // Macros compiled out: an installed log must observe exactly nothing.
    EXPECT_EQ(log.size(), 0u);
    return;
  }

  EXPECT_EQ(count_spans(log, "sweep_row"), stack_rows);
  EXPECT_EQ(count_spans(log, "sweep_cell"), cell_tasks);
  EXPECT_EQ(count_spans(log, "precompute_block_ids"), workloads.size());
  EXPECT_EQ(count_spans(log, "stack_column_pass"), stack_rows);
  EXPECT_GE(count_spans(log, "pool_task"), stack_rows + cell_tasks);
  std::size_t worker_names = 0;
  for (const obs::TraceEvent& e : log.events())
    if (e.ph == 'M' && !e.args.empty() &&
        e.args[0].second.rfind("gcpool-worker-", 0) == 0)
      ++worker_names;
  EXPECT_GE(worker_names, 1u);
  EXPECT_LE(worker_names, spec.threads);

  const std::string json = exported(log);
  EXPECT_EQ(validate_chrome_trace(json), "") << json.substr(0, 2000);
}

TEST(SweepObsIntegration, NoSinksMeansNoRecords) {
  const std::vector<Workload> workloads = {
      traces::zipf_blocks(16, 4, 400, 0.9, 2, 3)};
  TraceLog log;
  // Installed NOTHING: the sweep runs with obs idle.
  (void)run_sweep(small_sweep(workloads));
  EXPECT_EQ(log.size(), 0u);
}

TEST(SweepObsIntegration, ProgressReportsMonotonicallyToCompletion) {
  // --progress backing works in every build flavor (it is a SweepSpec
  // feature, not obs-gated).
  const std::vector<Workload> workloads = {
      traces::zipf_blocks(16, 4, 600, 0.9, 2, 4)};
  sim::SweepSpec spec = small_sweep(workloads);

  std::mutex mu;
  std::vector<std::pair<std::size_t, std::size_t>> reports;
  spec.progress = [&](std::size_t done, std::size_t total) {
    std::lock_guard<std::mutex> lock(mu);
    reports.emplace_back(done, total);
  };
  // One report per task, each counting up to the task total: the fast path
  // runs item-lru's row as one stack-pass task and every other cell alone;
  // the verifying engine runs every cell alone.
  const std::size_t cells = spec.policy_specs.size() * spec.capacities.size();
  for (const bool fast : {true, false}) {
    SCOPED_TRACE(fast ? "fast" : "verifying");
    spec.use_fast_path = fast;
    const std::size_t tasks = fast ? 1 + 2 * spec.capacities.size() : cells;
    {
      std::lock_guard<std::mutex> lock(mu);
      reports.clear();
    }
    (void)run_sweep(spec);
    ASSERT_EQ(reports.size(), tasks);
    std::size_t max_done = 0;
    for (const auto& [done, total] : reports) {
      EXPECT_EQ(total, tasks);
      EXPECT_GE(done, 1u);
      EXPECT_LE(done, tasks);
      max_done = std::max(max_done, done);
    }
    EXPECT_EQ(max_done, tasks);
  }
}

}  // namespace
}  // namespace gcaching
