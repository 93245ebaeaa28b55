// Load generator for the gcached runtime: closed-loop and open-loop modes.
//
// N client threads (sim/thread_pool.hpp workers) replay disjoint partitions
// of one trace against a shared ConcurrentCache. In the default CLOSED loop
// each thread issues its next request the moment the previous one completes,
// so measured latency feeds back into offered load exactly like a blocking
// cache client. The partition is strided (thread t replays accesses t, t+N,
// t+2N, ...), which keeps every thread's sub-trace statistically identical
// to the whole and, at N = 1, degenerates to the original access order —
// that is the configuration the differential test pins against
// simulate_fast.
//
// The OPEN loop (`LoadSpec::arrival = Arrival::kPoisson`) instead draws each
// thread's arrival times from a deterministic Poisson process (exponential
// inter-arrivals off the thread's own SplitMix64) targeting
// `rate_ops_per_sec` in aggregate, and issues every request at its
// scheduled instant whether or not the previous one has finished being
// slow. Closed-loop back-pressure throttles the offered load to whatever
// the cache sustains — which HIDES fill overlap, because a client parked on
// a fill offers nothing. Open loop keeps offering, so queueing (and MSHR
// coalescing under async fills) becomes visible: recorded latency is
// completion − *scheduled arrival*, i.e. service time plus queuing delay,
// and LoadResult reports offered vs achieved throughput so saturation is
// explicit rather than silent.
//
// Per-operation latency is recorded into per-thread gcmon HDR histograms
// (obs/hdr_histogram.hpp): wait-free record, fixed ~34 KB per thread
// regardless of op count, live-readable by an attached obs::Monitor, and
// percentiles within a documented <=1% relative error of the exact
// nearest-rank sample (bit-exact below ~256 ns). Measurement is BRACKETED —
// two steady_clock reads per op, so the recorded latency covers exactly the
// access() call: histogram recording, loop control, and any scheduling
// overhang between ops are excluded. (The previous chained single-read
// scheme attributed all inter-op time — including the tail of bookkeeping
// after a fill — to the following op; tests/test_gcmon.cpp pins the new
// semantics with a deterministic fake clock via detail::replay_closed_loop.)
//
// Lock-contention telemetry accumulates in each thread's ClientContext and
// is aggregated — and emitted via GC_OBS_COUNT — once per run, never per
// operation.
//
// With more than one thread the interleaving (hence SimStats) is
// schedule-dependent; the conservation invariants (accesses == ops,
// hits + misses == accesses) hold on every schedule and are what the
// concurrent tests assert.
#pragma once

#include <chrono>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <thread>

#include "core/stats.hpp"
#include "core/trace.hpp"
#include "gcached/sharded_cache.hpp"
#include "obs/gcmon.hpp"
#include "obs/hdr_histogram.hpp"
#include "obs/perf_counters.hpp"
#include "util/rng.hpp"

namespace gcaching::gcached {

/// Arrival process of the client threads (see file comment).
enum class Arrival {
  kClosed,   ///< next request issued when the previous completes
  kPoisson,  ///< open loop: deterministic Poisson arrivals at `rate_ops_per_sec`
};

struct LoadSpec {
  std::size_t threads = 1;
  /// Total operations across all threads; 0 = exactly one pass over the
  /// trace. More than one trace length wraps around (per-thread strides
  /// restart at their offset).
  std::uint64_t total_ops = 0;
  /// Base seed of the per-thread Poisson arrival schedules.
  std::uint64_t seed = 1;
  Arrival arrival = Arrival::kClosed;
  /// Aggregate offered rate for Arrival::kPoisson, split across threads in
  /// proportion to their op shares. Must be > 0 in poisson mode; ignored in
  /// closed-loop mode.
  double rate_ops_per_sec = 0.0;
  /// Optional live monitor. When set, run_load registers each thread's
  /// latency histogram with it for the duration of the run and takes one
  /// synchronous harvest after the clients quiesce (so even a sub-interval
  /// run exports a final snapshot with complete latency and counters).
  /// The caller owns the monitor and its atlas attachment to `cache`.
  obs::Monitor* monitor = nullptr;
  /// Capture per-thread hardware counters (perf_event_open) around each
  /// client's replay loop. Falls back loudly to perf_valid=false totals on
  /// hosts that refuse the syscall (obs/perf_counters.hpp).
  bool perf = false;
};

struct LoadResult {
  std::uint64_t ops = 0;
  double seconds = 0.0;
  double ops_per_sec = 0.0;
  /// Offered arrival rate (poisson mode: LoadSpec::rate_ops_per_sec; 0.0 in
  /// closed-loop mode, where offered load is defined by completions).
  /// Compare against `ops_per_sec` — achieved well below offered means the
  /// run was saturated and the latency tail is dominated by queuing delay.
  double offered_ops_per_sec = 0.0;
  /// Operation-latency percentiles over every op of every thread, in
  /// microseconds (p50 <= p99 <= p999 <= max by construction), read from
  /// the merged HDR histogram (<=1% relative error, see obs/hdr_histogram).
  /// Closed loop: bracketed service time of the access() call. Poisson:
  /// completion − scheduled arrival (service + queuing delay).
  double p50_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
  double max_us = 0.0;
  /// Aggregate cache statistics (collect_stats after quiescing).
  SimStats stats;
  /// Summed ClientContext contention counters; `backoff_rounds` counts the
  /// yields between failed try_locks.
  std::uint64_t lock_acquisitions = 0;
  std::uint64_t lock_contended = 0;
  std::uint64_t backoff_rounds = 0;
  /// Always 0: contended acquisitions yield, they never sleep. Kept so
  /// readers of the old field still compile.
  std::uint64_t backoff_ns = 0;
  /// Summed per-thread hardware counters; `perf.valid` is false unless
  /// LoadSpec::perf was set AND every thread's counters opened.
  obs::PerfTotals perf;
};

namespace detail {

/// One thread's closed-loop strided replay with bracketed latency
/// measurement: start/end Clock reads around each access, recorded into
/// `hist` in Clock ticks (nanoseconds for steady_clock). Templated on the
/// clock so tests drive a deterministic fake clock and pin exactly what the
/// recorded latency does — and does not — include.
template <typename Clock, typename AccessFn>
void replay_closed_loop(AccessFn&& access_one, std::size_t start,
                        std::size_t stride, std::size_t wrap,
                        std::uint64_t ops, obs::HdrHistogram& hist) {
  std::size_t i = start;
  for (std::uint64_t op = 0; op < ops; ++op) {
    const auto t0 = Clock::now();
    access_one(i);
    const auto t1 = Clock::now();
    hist.record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count()));
    i += stride;
    if (i >= wrap) i = start;  // wrap: restart this thread's stride
  }
}

/// One thread's open-loop strided replay: arrival op's scheduled instant is
/// t_start + sum of exponential inter-arrival draws (rate `rate_ops_per_sec`
/// for THIS thread) from `rng` — deterministic given the seed, independent
/// of how long any access takes. The thread sleeps until each scheduled
/// arrival (a no-op once it is running behind) and records
/// completion − scheduled arrival, so queuing delay shows up in the
/// percentiles instead of silently deflating the offered load. Templated on
/// the clock like replay_closed_loop.
template <typename Clock, typename AccessFn>
void replay_open_loop(AccessFn&& access_one, std::size_t start,
                      std::size_t stride, std::size_t wrap, std::uint64_t ops,
                      double rate_ops_per_sec, SplitMix64 rng,
                      obs::HdrHistogram& hist) {
  const auto t_start = Clock::now();
  double scheduled_ns = 0.0;
  std::size_t i = start;
  for (std::uint64_t op = 0; op < ops; ++op) {
    // Inverse-CDF exponential draw; the >>11 keeps the uniform in [0, 1)
    // with full double precision, and log1p(-u) never hits log(0).
    const double u = static_cast<double>(rng() >> 11) * 0x1.0p-53;
    scheduled_ns += -std::log1p(-u) * 1e9 / rate_ops_per_sec;
    const auto arrival =
        t_start +
        std::chrono::nanoseconds(static_cast<std::int64_t>(scheduled_ns));
    std::this_thread::sleep_until(arrival);
    access_one(i);
    const auto lag = Clock::now() - arrival;
    hist.record(
        lag.count() > 0
            ? static_cast<std::uint64_t>(
                  std::chrono::duration_cast<std::chrono::nanoseconds>(lag)
                      .count())
            : 0);
    i += stride;
    if (i >= wrap) i = start;
  }
}

}  // namespace detail

/// Run `spec.threads` closed-loop clients over `trace` against `cache`.
/// `block_ids` must hold each access's block id (resolve_block_ids /
/// Trace::precompute_block_ids). Blocks until every client finished.
LoadResult run_load(ConcurrentCache& cache, const Trace& trace,
                    std::span<const BlockId> block_ids, const LoadSpec& spec);

}  // namespace gcaching::gcached
