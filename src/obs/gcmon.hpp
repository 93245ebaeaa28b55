// gcmon — the monitor behind every counter file the repo writes.
//
// A `Monitor` harvests
//   * an attached shard source — a callback returning one `ShardCounters`
//     per shard (obs/counters.hpp) — and
//   * any registered HdrHistograms (per-load-thread latency tables),
// into a timestamped `Snapshot` of cumulative counters. Two sources exist:
// gcached's `ConcurrentCache::shard_counters`, which reads each shard's own
// counters under one uncounted hold of that shard's lock and is harvested
// by the monitor's background thread, and `record_timeline`
// (obs/timeline.hpp), one shard that is a stepped simulation, harvested
// once per window without the thread. Harvests are serialized, so every
// shard's counters are non-decreasing from one snapshot to the next; the
// histograms are read with relaxed loads and never block a recording
// thread (docs/CONCURRENCY.md, "gcmon read discipline").
//
// Each snapshot can be exported three ways, all optional:
//   * Prometheus text exposition (`prometheus_text`) rewritten atomically
//     (tmp + rename) to a file on every harvest — scrape by tailing or by
//     file: target;
//   * one JSON object per harvest (`jsonl_line`) on a JSONL stream that
//     the first harvest starts empty;
//   * a "gcmon_snapshot" span recorded into the installed TraceLog, so
//     harvest cadence renders on the same Chrome timeline as sweep spans.
// A failed file export is sticky: `export_error()` names the first path
// that could not be written, and the tools turn it into a non-zero exit.
//
// Lifecycle: attach/register while stopped, `start()`, run traffic,
// `stop()` (takes one final snapshot so short runs still export) — or no
// thread at all, calling `harvest_now()` at chosen points. The monitor
// keeps no history: the exports and `harvest_now()`'s return value are the
// record, and consecutive snapshots give the exact deltas. The monitor is
// itself cold-path code — it lives beside the GC_OBS_* sinks in the obs
// tier and is attached from tools/benches, never from engine internals.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/counters.hpp"
#include "obs/hdr_histogram.hpp"

namespace gcaching::obs {

/// Reads every shard's cumulative counters, one entry per shard.
using ShardSource = std::function<std::vector<ShardCounters>()>;

struct MonitorConfig {
  /// Harvest period. The thread uses a condition variable timed wait, so
  /// stop() never waits out a full interval.
  std::chrono::milliseconds interval{50};
  /// Prometheus text exposition target ("" = disabled). Rewritten whole on
  /// every harvest via tmp + rename so scrapers never see a torn file.
  std::string prometheus_path;
  /// JSONL stream target ("" = disabled). The first harvest truncates it;
  /// every harvest appends one object.
  std::string jsonl_path;
};

/// Merged-histogram summary carried by each snapshot.
struct LatencySummary {
  std::uint64_t count = 0;
  double p50_ns = 0.0;
  double p99_ns = 0.0;
  double p999_ns = 0.0;
  double max_ns = 0.0;
};

struct Snapshot {
  std::uint64_t seq = 0;              ///< 0-based harvest index
  std::int64_t wall_ms = 0;           ///< system_clock ms since epoch
  double uptime_s = 0.0;              ///< steady seconds since start()
  std::vector<ShardCounters> shards;  ///< cumulative, per shard
  ShardCounters totals;               ///< cumulative, summed over shards
  LatencySummary latency;             ///< merged over registered histograms
};

class Monitor {
 public:
  explicit Monitor(MonitorConfig cfg = {});
  ~Monitor();
  Monitor(const Monitor&) = delete;
  Monitor& operator=(const Monitor&) = delete;

  /// Wire the per-shard counter source (empty = detach). Call before
  /// start(); whatever the source reads must outlive the running phase.
  void attach_shards(ShardSource source);

  /// Register / deregister a latency histogram (per load thread). Safe
  /// while running — the registry is mutex-guarded and only the snapshot
  /// thread iterates it; the histograms themselves are read with relaxed
  /// loads, so recording threads are never blocked.
  void add_histogram(const HdrHistogram* h);
  void remove_histogram(const HdrHistogram* h);

  /// Launch the snapshot thread. No-op if already running.
  void start();
  /// Join the snapshot thread, taking one final harvest first so that runs
  /// shorter than one interval still produce a snapshot. No-op if stopped.
  void stop();
  bool running() const;

  /// Take one harvest synchronously on the calling thread (also what the
  /// background thread does each tick). Usable without start() for
  /// deterministic tests.
  Snapshot harvest_now();

  /// "" while every export succeeded, else "cannot write <path>" for the
  /// first file that could not be written (sticky).
  std::string export_error() const;

 private:
  void run_loop();
  Snapshot build_snapshot();
  void export_snapshot(const Snapshot& snap);

  MonitorConfig cfg_;

  // Harvests run whole under mu_ (source read, file export), so two
  // concurrent harvest_now() calls can neither interleave their reads nor
  // write the stream out of seq order.
  mutable std::mutex mu_;  // source, histograms, exports
  ShardSource source_;
  std::vector<const HdrHistogram*> histograms_;
  LatencySummary last_latency_;  // persists across histogram deregistration
  std::uint64_t seq_ = 0;
  std::ofstream jsonl_;  // opened, empty, at the first harvest
  std::string export_error_;

  mutable std::mutex run_mu_;  // snapshot-thread lifecycle
  std::condition_variable run_cv_;
  bool stop_requested_ = false;
  bool running_ = false;
  std::thread thread_;
  std::chrono::steady_clock::time_point started_;
};

/// Prometheus text exposition for `snap`: one `gcached_shard_<key>` family
/// per counter of obs/counters.hpp, one sample per shard, then the latency
/// and harvest gauges.
std::string prometheus_text(const Snapshot& snap);
/// One JSONL line (no trailing newline) for `snap`: seq, wall_ms, uptime_s,
/// totals, latency and the per-shard array.
std::string jsonl_line(const Snapshot& snap);

/// Schema check for a Prometheus text exposition: returns "" when `text`
/// parses (every non-empty line is `# HELP`, `# TYPE`, or a sample
/// `name{labels} value`; metric names are [a-zA-Z_:][a-zA-Z0-9_:]*; every
/// sample's name was TYPE-declared; values parse as finite numbers), or a
/// description of the first problem. Mirrors validate_chrome_trace.
std::string validate_prometheus_text(const std::string& text);

/// Write `text` to `path` atomically (tmp file in the same directory +
/// rename). Returns false (and leaves no temp debris) on I/O failure.
bool write_file_atomic(const std::string& path, const std::string& text);

}  // namespace gcaching::obs
