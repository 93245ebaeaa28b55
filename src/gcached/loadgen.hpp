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
// a fill offers nothing. Open loop keeps offering, so queueing (and fill
// coalescing under async fills) becomes visible: recorded latency is
// completion − *scheduled arrival*, i.e. service time plus queuing delay,
// and LoadResult reports offered vs achieved throughput so saturation is
// explicit rather than silent.
//
// Per-operation latency is recorded into per-thread gcmon HDR histograms
// (obs/hdr_histogram.hpp): wait-free record, fixed ~34 KB per thread
// regardless of op count, live-readable by an attached obs::Monitor, and
// percentiles within a documented <=1% relative error of the exact
// nearest-rank sample (bit-exact below ~256 ns).
//
// The closed loop times a SAMPLE of about one op in detail::kTimedEvery
// (16). A timed op is BRACKETED: two steady_clock reads around exactly
// that access() call, so histogram recording, loop control and any
// scheduling overhang between ops are excluded. (A chained single-read
// scheme would charge all inter-op time to the following op.)
// An untimed op calls access() and nothing else. Timing every op cost two
// serialising clock reads (~45 ns each on a tsc clocksource) and two
// atomic adds per op, the largest per-op cost of the loop, and a random
// 1-in-16 sample estimates the same quantiles. The sample is jittered, not
// strided: before each timed op the loop skips a uniform draw in [0, 30]
// of untimed ops from the thread's own SplitMix64, so the mean gap is 16.
// A fixed stride would alias with the trace. The GC model loads a whole
// block of B = 16 items on a miss, so on a scan-like trace one op in 16
// misses at a block boundary and the other 15 hit; a stride of 16 would
// time only the misses or only the hits. detail::timed_ops recomputes the
// schedule from a copy of the RNG, and run_load checks the merged
// histogram count against it. tests/test_gcmon.cpp pins the schedule, the
// bracket and the quantile accuracy with a deterministic fake clock via
// detail::replay_closed_loop.
//
// The OPEN loop still times every op: its recorded value is completion −
// scheduled arrival, and it already waits for each op's arrival.
//
// Lock-contention telemetry, and the count of hits served without a lock,
// accumulate in each thread's count slot in the cache (shard_lock.hpp) and
// are summed into the LoadResult once per run, never per operation. The
// context also holds the thread's deferred hit recency (sharded_cache.hpp);
// each client drains it when its replay ends, so nothing stays pending
// once run_load returns.
//
// With more than one thread the interleaving (hence SimStats) is
// schedule-dependent; the conservation invariants (accesses == ops,
// hits + misses == accesses) hold on every schedule and are what the
// concurrent tests assert.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>

#include "core/stats.hpp"
#include "core/trace.hpp"
#include "gcached/shard_lock.hpp"
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
  /// Base seed of each thread's SplitMix64: its Poisson arrival schedule in
  /// the open loop, its timed-op sample in the closed loop.
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
  /// The caller owns the monitor and attaches `cache`'s shard_counters.
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
  /// Operation-latency percentiles in microseconds (p50 <= p99 <= p999 <=
  /// max by construction), read from the merged HDR histogram (<=1%
  /// relative error, see obs/hdr_histogram). Closed loop: bracketed service
  /// time of the access() call, over the jittered ~1-in-16 sample of ops
  /// (see file comment); all 0 when no op was timed. Poisson: completion −
  /// scheduled arrival (service + queuing delay), over every op.
  double p50_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
  double max_us = 0.0;
  /// Ops the percentiles are over: detail::timed_ops per thread in the
  /// closed loop, `ops` in the open loop.
  std::uint64_t latency_samples = 0;
  /// Aggregate cache statistics (collect_stats after quiescing).
  SimStats stats;
  /// This run's clients' LockCounts, summed over shards: counted holds,
  /// contended holds, and failed try_locks (one yield each).
  std::uint64_t lock_acquisitions = 0;
  std::uint64_t lock_contended = 0;
  std::uint64_t backoff_rounds = 0;
  /// Temporal hits served with no hold. Every other op takes at least one
  /// hold, and each of these is a hit, so lock_acquisitions + lockfree_hits
  /// >= ops and lockfree_hits <= stats.hits.
  std::uint64_t lockfree_hits = 0;
  /// Always 0: contended acquisitions yield, they never sleep. Kept so
  /// readers of the old field still compile.
  std::uint64_t backoff_ns = 0;
  /// Summed per-thread hardware counters; `perf.valid` is false unless
  /// LoadSpec::perf was set AND every thread's counters opened.
  obs::PerfTotals perf;
};

namespace detail {

/// Client thread `t`'s SplitMix64, deterministic per (seed, t): its Poisson
/// arrivals in the open loop, its timed-op sample in the closed loop.
inline SplitMix64 thread_rng(std::uint64_t seed, std::size_t t) {
  return SplitMix64(seed * 0x9e3779b97f4a7c15ULL + t);
}

/// About one closed-loop op in kTimedEvery is timed (see file comment).
/// A compile-time constant, not a knob.
inline constexpr std::uint64_t kTimedEvery = 16;

/// Untimed ops before the next timed one: uniform in
/// [0, 2 * kTimedEvery - 2], so timed ops are kTimedEvery ops apart on
/// average but never on a fixed stride.
inline std::uint64_t untimed_gap(SplitMix64& rng) {
  return rng.below(2 * kTimedEvery - 1);
}

/// The timed-op schedule of a replay_closed_loop over `ops` ops drawing
/// from `rng`: calls `on_timed(op)` for each timed op index in order and
/// returns how many there are. Takes the RNG by value, so callers recompute
/// the schedule from a fresh copy of the one the replay used.
template <typename OnTimed>
std::uint64_t timed_ops(std::uint64_t ops, SplitMix64 rng,
                        OnTimed&& on_timed) {
  std::uint64_t timed = 0;
  for (std::uint64_t op = untimed_gap(rng); op < ops;
       op += 1 + untimed_gap(rng)) {
    on_timed(op);
    ++timed;
  }
  return timed;
}

inline std::uint64_t timed_ops(std::uint64_t ops, SplitMix64 rng) {
  return timed_ops(ops, rng, [](std::uint64_t) {});
}

/// One thread's closed-loop strided replay with sampled, bracketed latency
/// measurement: the ops timed_ops(ops, rng) names get start/end Clock reads
/// around their access, recorded into `hist` in Clock ticks (nanoseconds
/// for steady_clock); every other op is a bare access. Returns the number
/// of ops replayed. Templated on the clock so tests drive a deterministic
/// fake clock and pin exactly which ops are timed and what the recorded
/// latency does — and does not — include.
template <typename Clock, typename AccessFn>
std::uint64_t replay_closed_loop(AccessFn&& access_one, std::size_t start,
                                 std::size_t stride, std::size_t wrap,
                                 std::uint64_t ops, SplitMix64 rng,
                                 obs::HdrHistogram& hist) {
  std::size_t i = start;
  const auto advance = [&i, start, stride, wrap] {
    i += stride;
    if (i >= wrap) i = start;  // wrap: restart this thread's stride
  };
  std::uint64_t op = 0;
  for (;;) {
    const std::uint64_t timed = std::min(op + untimed_gap(rng), ops);
    for (; op < timed; ++op) {
      access_one(i);
      advance();
    }
    if (op == ops) return op;
    const auto t0 = Clock::now();
    access_one(i);
    const auto t1 = Clock::now();
    hist.record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count()));
    advance();
    ++op;
  }
}

/// One thread's open-loop strided replay: arrival op's scheduled instant is
/// t_start + sum of exponential inter-arrival draws (rate `rate_ops_per_sec`
/// for THIS thread) from `rng` — deterministic given the seed, independent
/// of how long any access takes. The thread waits until each scheduled
/// arrival with deadline_wait (shard_lock.hpp), the backend fill's wait, so
/// an op starts within a clock read of its arrival rather than a kernel
/// wake-up after it (a no-op once it is running behind), and records
/// completion − scheduled arrival for every op, so queuing delay shows up
/// in the percentiles instead of silently deflating the offered load.
/// Returns the number of ops replayed. Templated on the clock like
/// replay_closed_loop.
template <typename Clock, typename AccessFn>
std::uint64_t replay_open_loop(AccessFn&& access_one, std::size_t start,
                               std::size_t stride, std::size_t wrap,
                               std::uint64_t ops, double rate_ops_per_sec,
                               SplitMix64 rng, obs::HdrHistogram& hist) {
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
    deadline_wait(arrival);
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
  return ops;
}

}  // namespace detail

/// Run `spec.threads` closed-loop clients over `trace` against `cache`.
/// `block_ids` must hold each access's block id (resolve_block_ids /
/// Trace::precompute_block_ids). Blocks until every client finished.
LoadResult run_load(ConcurrentCache& cache, const Trace& trace,
                    std::span<const BlockId> block_ids, const LoadSpec& spec);

}  // namespace gcaching::gcached
