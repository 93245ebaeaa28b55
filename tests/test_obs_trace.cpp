// TraceLog / SpanGuard / CounterRegistry semantics and the Chrome
// trace-event schema validator (src/obs/trace_event.hpp, registry.hpp).
//
// The validator is held to both directions: every trace this module exports
// must pass, and hand-broken fixtures (invalid JSON, missing keys,
// non-monotonic timestamps, unmatched B/E, overlapping non-nested X spans)
// must each fail with a descriptive message. The sweep integration test
// checks the actual instrumentation sites: a run_sweep under an installed
// log yields named pool workers, sweep_row / sweep_cell spans, and registry
// counters that add up — and records nothing at all when no sink is
// installed.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/obs.hpp"
#include "sim/runner.hpp"
#include "traces/synthetic.hpp"

namespace gcaching {
namespace {

using obs::CounterRegistry;
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

TEST(CounterRegistryUnit, AccumulatesAndSnapshotsSorted) {
  CounterRegistry reg;
  reg.add("b.second", 2);
  reg.add("a.first");
  reg.add("b.second", 3);
  EXPECT_EQ(reg.value("b.second"), 5u);
  EXPECT_EQ(reg.value("a.first"), 1u);
  EXPECT_EQ(reg.value("untouched"), 0u);
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].first, "a.first");
  EXPECT_EQ(snap[1].first, "b.second");

  const std::string dir = ::testing::TempDir();
  reg.write_csv(dir + "/counters.csv");
  reg.write_jsonl(dir + "/counters.jsonl");
  std::ifstream csv(dir + "/counters.csv");
  std::string line;
  ASSERT_TRUE(std::getline(csv, line));
  EXPECT_EQ(line, "counter,value");
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

TEST(SweepObsIntegration, TraceAndCountersCaptureTheSchedule) {
  const std::vector<Workload> workloads = {
      traces::zipf_blocks(32, 8, 1500, 0.9, 3, 1),
      traces::zipf_blocks(32, 8, 1500, 0.8, 3, 2)};
  const sim::SweepSpec spec = small_sweep(workloads);
  // item-lru takes the stack pass: one task per workload. item-fifo and
  // block-fifo run one task per cell.
  const std::size_t stack_rows = workloads.size();
  const std::size_t cell_tasks = workloads.size() * 2 * spec.capacities.size();

  TraceLog log;
  CounterRegistry reg;
  std::vector<sim::SweepCell> cells;
  {
    obs::TraceLogScope tscope(log);
    obs::MetricsScope mscope(reg);
    cells = run_sweep(spec);
  }
  ASSERT_EQ(cells.size(), workloads.size() * spec.policy_specs.size() *
                              spec.capacities.size());

  if (!obs::kObsEnabled) {
    // Macros compiled out: installing sinks must observe exactly nothing.
    EXPECT_EQ(log.size(), 0u);
    EXPECT_TRUE(reg.snapshot().empty());
    return;
  }

  EXPECT_EQ(reg.value("sweep.rows_completed"), stack_rows);
  EXPECT_EQ(reg.value("sweep.cells_completed"), cell_tasks);
  EXPECT_EQ(reg.value("sweep.block_id_precomputes"), workloads.size());
  EXPECT_EQ(reg.value("column.stack_fast_path"), stack_rows);
  EXPECT_GE(reg.value("pool.tasks_executed"), stack_rows + cell_tasks);

  std::size_t row_spans = 0, cell_spans = 0, pool_spans = 0, worker_names = 0;
  for (const obs::TraceEvent& e : log.events()) {
    if (e.name == "sweep_row") ++row_spans;
    if (e.name == "sweep_cell") ++cell_spans;
    if (e.name == "pool_task") ++pool_spans;
    if (e.ph == 'M' && !e.args.empty() &&
        e.args[0].second.rfind("gcpool-worker-", 0) == 0)
      ++worker_names;
  }
  EXPECT_EQ(row_spans, stack_rows);
  EXPECT_EQ(cell_spans, cell_tasks);
  EXPECT_GE(pool_spans, stack_rows + cell_tasks);
  EXPECT_GE(worker_names, 1u);
  EXPECT_LE(worker_names, spec.threads);

  const std::string json = exported(log);
  EXPECT_EQ(validate_chrome_trace(json), "") << json.substr(0, 2000);
}

TEST(SweepObsIntegration, NoSinksMeansNoRecords) {
  const std::vector<Workload> workloads = {
      traces::zipf_blocks(16, 4, 400, 0.9, 2, 3)};
  TraceLog log;
  CounterRegistry reg;
  // Installed NOTHING: the sweep runs with obs idle.
  (void)run_sweep(small_sweep(workloads));
  EXPECT_EQ(log.size(), 0u);
  EXPECT_TRUE(reg.snapshot().empty());
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
