// gcmon — live runtime monitor for the gcached concurrent runtime.
//
// A `Monitor` owns a background snapshot thread that periodically harvests
//   * an attached shard source — a callback returning one `ShardValues` per
//     shard; gcached's is `ConcurrentCache::shard_values`, which copies each
//     shard's own SimStats under one uncounted hold of that shard's lock —
//     and
//   * any registered HdrHistograms (per-load-thread latency tables),
// into a timestamped ring of `Snapshot`s. Harvests are serialized, so every
// shard's cumulative counters are non-decreasing across the ring; the
// histograms are read with relaxed loads and never block a recording thread
// (docs/CONCURRENCY.md, "gcmon read discipline").
//
// Each snapshot can be exported three ways, all optional:
//   * Prometheus text exposition rewritten atomically (tmp + rename) to a
//     file on every harvest — scrape by tailing or by file: target;
//   * one JSON object per harvest appended to a JSONL stream;
//   * a "gcmon_snapshot" span recorded into the installed TraceLog, so
//     harvest cadence renders on the same Chrome timeline as sweep spans.
// A failed file export is sticky: `export_error()` names the first path
// that could not be written, and the tools turn it into a non-zero exit.
//
// Lifecycle: attach/register while stopped, `start()`, run traffic,
// `stop()` (takes one final snapshot so short runs still export), read the
// ring. The monitor is itself cold-path code — it lives beside the GC_OBS_*
// sinks in the obs tier and is attached from tools/benches, never from
// engine internals.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/hdr_histogram.hpp"

namespace gcaching::obs {

/// Plain-value snapshot of one shard's counters (what a shard source
/// returns and what gcmon's ring stores as totals and deltas).
struct ShardValues {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t sideloads = 0;
  std::uint64_t delayed_hits = 0;
  std::uint64_t coalesced = 0;
  std::uint64_t lock_acquisitions = 0;
  std::uint64_t trylock_failures = 0;
  std::uint64_t residency = 0;
  std::uint64_t mshr_inflight = 0;

  friend ShardValues operator-(const ShardValues& a, const ShardValues& b) {
    return ShardValues{a.hits - b.hits,
                       a.misses - b.misses,
                       a.sideloads - b.sideloads,
                       a.delayed_hits - b.delayed_hits,
                       a.coalesced - b.coalesced,
                       a.lock_acquisitions - b.lock_acquisitions,
                       a.trylock_failures - b.trylock_failures,
                       a.residency,        // gauges don't difference
                       a.mshr_inflight};   // gauges don't difference
  }
  ShardValues& operator+=(const ShardValues& o) {
    hits += o.hits;
    misses += o.misses;
    sideloads += o.sideloads;
    delayed_hits += o.delayed_hits;
    coalesced += o.coalesced;
    lock_acquisitions += o.lock_acquisitions;
    trylock_failures += o.trylock_failures;
    residency += o.residency;
    mshr_inflight += o.mshr_inflight;
    return *this;
  }
};

/// Reads every shard's cumulative counters, one entry per shard.
using ShardSource = std::function<std::vector<ShardValues>()>;

struct MonitorConfig {
  /// Harvest period. The thread uses a condition variable timed wait, so
  /// stop() never waits out a full interval.
  std::chrono::milliseconds interval{50};
  /// Ring capacity: oldest snapshots are dropped once exceeded.
  std::size_t ring_capacity = 256;
  /// Prometheus text exposition target ("" = disabled). Rewritten whole on
  /// every harvest via tmp + rename so scrapers never see a torn file.
  std::string prometheus_path;
  /// JSONL stream target ("" = disabled). One object appended per harvest.
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
  std::uint64_t seq = 0;          ///< 0-based harvest index
  std::int64_t wall_ms = 0;       ///< system_clock ms since epoch
  double uptime_s = 0.0;          ///< steady seconds since start()
  std::vector<ShardValues> shards;        ///< cumulative totals per shard
  std::vector<ShardValues> shard_deltas;  ///< since previous snapshot
  ShardValues totals;             ///< cumulative, summed over shards
  LatencySummary latency;         ///< merged over registered histograms
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

  const MonitorConfig& config() const noexcept { return cfg_; }
  /// "" while every export succeeded, else "cannot write <path>" for the
  /// first file that could not be written (sticky).
  std::string export_error() const;
  std::size_t snapshot_count() const;
  /// Copy of the ring, oldest first.
  std::vector<Snapshot> snapshots() const;

  /// Prometheus text exposition for `snap` (also what the file exporter
  /// writes). Exposed for tests and the CI validator.
  std::string prometheus_text(const Snapshot& snap) const;
  /// One JSONL line (no trailing newline) for `snap`.
  std::string jsonl_line(const Snapshot& snap) const;

 private:
  void run_loop();
  Snapshot build_snapshot();
  void export_snapshot(const Snapshot& snap);

  MonitorConfig cfg_;

  // Harvests run whole under mu_ (source read, ring append, file export),
  // so two concurrent harvest_now() calls can neither interleave their
  // reads nor write the stream out of seq order.
  mutable std::mutex mu_;  // source, ring, histograms, prev totals, exports
  ShardSource source_;
  std::vector<Snapshot> ring_;
  std::vector<const HdrHistogram*> histograms_;
  std::vector<ShardValues> prev_;
  LatencySummary last_latency_;  // persists across histogram deregistration
  std::uint64_t seq_ = 0;
  std::string export_error_;

  mutable std::mutex run_mu_;  // snapshot-thread lifecycle
  std::condition_variable run_cv_;
  bool stop_requested_ = false;
  bool running_ = false;
  std::thread thread_;
  std::chrono::steady_clock::time_point started_;
};

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
