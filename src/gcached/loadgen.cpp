#include "gcached/loadgen.hpp"

#include <chrono>
#include <memory>
#include <vector>

#if defined(__linux__)
#include <sys/prctl.h>
#endif

#include "obs/obs.hpp"
#include "sim/thread_pool.hpp"
#include "util/contracts.hpp"

namespace gcaching::gcached {

namespace {

/// Every timed wait in a client thread — backend fills and open-loop
/// arrival sleeps — is tens of microseconds, but Linux pads
/// timer expirations by the thread's timer slack (default 50us), so a
/// 50us fill actually sleeps 100-200us and every measured latency and
/// throughput number inherits the padding. Tighten the slack to 1us on
/// each client thread; harmless no-op elsewhere.
void tighten_timer_slack() {
#if defined(__linux__)
  prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
#endif
}

}  // namespace

LoadResult run_load(ConcurrentCache& cache, const Trace& trace,
                    std::span<const BlockId> block_ids, const LoadSpec& spec) {
  GC_REQUIRE(trace.size() > 0, "run_load needs a non-empty trace");
  GC_REQUIRE(block_ids.size() == trace.size(),
             "one precomputed block id per access is required");
  GC_REQUIRE(spec.threads >= 1, "run_load needs at least one client thread");
  GC_REQUIRE(spec.arrival == Arrival::kClosed || spec.rate_ops_per_sec > 0.0,
             "poisson arrivals need a positive rate_ops_per_sec");

  const std::size_t n = trace.size();
  const std::size_t threads = spec.threads;
  const std::uint64_t total_ops =
      spec.total_ops == 0 ? static_cast<std::uint64_t>(n) : spec.total_ops;
  GC_REQUIRE(total_ops >= threads,
             "run_load needs at least one op per client thread");

  struct Client {
    ClientContext ctx;
    obs::HdrHistogram hist;  // wait-free per-thread latency table
    obs::PerfTotals perf;
  };
  // unique_ptr elements: HdrHistogram holds atomics, so Client is neither
  // copyable nor movable and cannot live in the vector directly.
  std::vector<std::unique_ptr<Client>> clients;
  clients.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t)
    clients.push_back(std::make_unique<Client>());

  if (spec.monitor != nullptr)
    for (const std::unique_ptr<Client>& c : clients)
      spec.monitor->add_histogram(&c->hist);

  const std::vector<ItemId>& accesses = trace.accesses();
  GC_OBS_SPAN(load_span, "gcached_load", "gcached");

  ThreadPool pool(threads);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t t = 0; t < threads; ++t) {
    Client& client = *clients[t];
    const std::uint64_t ops_t =
        total_ops / threads + (t < total_ops % threads ? 1 : 0);
    const bool perf = spec.perf;
    const Arrival arrival = spec.arrival;
    // Each thread offers its proportional share of the aggregate rate so
    // remainder threads (one extra op) also get a proportionally longer
    // schedule and every thread's arrival process drains in the same
    // expected wall time.
    const double rate_t =
        spec.rate_ops_per_sec * static_cast<double>(ops_t) /
        static_cast<double>(total_ops);
    // Arrival schedule RNG: deterministic per (seed, thread).
    const SplitMix64 arrivals_rng(spec.seed * 0x9e3779b97f4a7c15ULL + t);
    pool.submit([&cache, &client, &accesses, block_ids, n, threads, t, ops_t,
                 perf, arrival, rate_t, arrivals_rng] {
      ClientContext& ctx = client.ctx;
      tighten_timer_slack();
      // Perf counters attach to the calling thread, so they must be opened
      // here on the worker, not where the task was submitted.
      std::unique_ptr<obs::PerfCounters> counters;
      if (perf) {
        counters = std::make_unique<obs::PerfCounters>();
        counters->start();
      }
      const auto access_one = [&cache, &ctx, &accesses,
                               block_ids](std::size_t i) {
        cache.access(ctx, accesses[i], block_ids[i]);
      };
      if (arrival == Arrival::kPoisson) {
        detail::replay_open_loop<std::chrono::steady_clock>(
            access_one, t, threads, n, ops_t, rate_t, arrivals_rng,
            client.hist);
      } else {
        detail::replay_closed_loop<std::chrono::steady_clock>(
            access_one, t, threads, n, ops_t, client.hist);
      }
      if (counters != nullptr) client.perf = counters->stop();
    });
  }
  pool.wait();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  LoadResult result;
  result.ops = total_ops;
  result.seconds = seconds;
  result.ops_per_sec =
      seconds > 0.0 ? static_cast<double>(total_ops) / seconds : 0.0;
  result.offered_ops_per_sec =
      spec.arrival == Arrival::kPoisson ? spec.rate_ops_per_sec : 0.0;

  obs::HdrHistogram merged;
  result.perf.valid = spec.perf;  // &&-folds with each thread's validity
  for (const std::unique_ptr<Client>& client : clients) {
    merged.merge_from(client->hist);
    result.lock_acquisitions += client->ctx.lock_acquisitions;
    result.lock_contended += client->ctx.lock_contended;
    result.backoff_rounds += client->ctx.backoff_rounds;
    if (spec.perf) result.perf += client->perf;
  }
  GC_CHECK(merged.count() == total_ops,
           "load generator lost or duplicated operations");
  result.p50_us = merged.quantile(0.50) * 1e-3;
  result.p99_us = merged.quantile(0.99) * 1e-3;
  result.p999_us = merged.quantile(0.999) * 1e-3;
  result.max_us = merged.max_value() * 1e-3;

  result.stats = cache.collect_stats();

  // Final synchronous harvest while the per-thread histograms are still
  // registered and the clients are quiesced: guarantees one snapshot with
  // complete latency + counters even for runs shorter than the monitor
  // interval, and gives "stopped after run_load" callers their totals.
  if (spec.monitor != nullptr) {
    spec.monitor->harvest_now();
    for (const std::unique_ptr<Client>& c : clients)
      spec.monitor->remove_histogram(&c->hist);
  }

  // Aggregate contention telemetry, once per run (the gcobs counters the
  // issue asks for; per-op emission would contend on the registry).
  GC_OBS_COUNT("gcached.ops", result.ops);
  GC_OBS_COUNT("gcached.lock_acquisitions", result.lock_acquisitions);
  GC_OBS_COUNT("gcached.lock_contended", result.lock_contended);
  GC_OBS_COUNT("gcached.backoff_rounds", result.backoff_rounds);
  return result;
}

}  // namespace gcaching::gcached
