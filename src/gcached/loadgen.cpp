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
/// arrivals — is a deadline_wait (shard_lock.hpp): a sleep to kFillSpinNs
/// before the deadline, then a spin. The spin covers only the kernel's
/// wake-up; Linux also pads each timer expiration by the thread's timer
/// slack (default 50us), which would overshoot the sleep past the deadline
/// itself, so a 20us fill would take 50-150us and every measured latency
/// and throughput number would inherit the padding. Tighten the slack to
/// 1us on each client thread; harmless no-op elsewhere.
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
    std::uint64_t ops = 0;       // this thread's share of total_ops
    SplitMix64 rng;              // detail::thread_rng(spec.seed, t)
    std::uint64_t replayed = 0;  // ops its replay loop reports it ran
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
    client.ops = total_ops / threads + (t < total_ops % threads ? 1 : 0);
    client.rng = detail::thread_rng(spec.seed, t);
    const bool perf = spec.perf;
    const Arrival arrival = spec.arrival;
    // Each thread offers its proportional share of the aggregate rate so
    // remainder threads (one extra op) also get a proportionally longer
    // schedule and every thread's arrival process drains in the same
    // expected wall time.
    const double rate_t =
        spec.rate_ops_per_sec * static_cast<double>(client.ops) /
        static_cast<double>(total_ops);
    pool.submit([&cache, &client, &accesses, block_ids, n, threads, t, perf,
                 arrival, rate_t] {
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
      client.replayed =
          arrival == Arrival::kPoisson
              ? detail::replay_open_loop<std::chrono::steady_clock>(
                    access_one, t, threads, n, client.ops, rate_t,
                    client.rng, client.hist)
              : detail::replay_closed_loop<std::chrono::steady_clock>(
                    access_one, t, threads, n, client.ops, client.rng,
                    client.hist);
      // The client's hits still pending on each shard reach the policy
      // before it stops, so a later run on this cache sees them.
      cache.drain(ctx);
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
  std::uint64_t replayed = 0;
  std::uint64_t expected_samples = 0;
  result.perf.valid = spec.perf;  // &&-folds with each thread's validity
  for (const std::unique_ptr<Client>& client : clients) {
    merged.merge_from(client->hist);
    replayed += client->replayed;
    // Recomputed from the client's unused RNG copy, not counted by it.
    expected_samples += spec.arrival == Arrival::kPoisson
                            ? client->ops
                            : detail::timed_ops(client->ops, client->rng);
    // The client's own slot in the cache: this run's lock counts only.
    const LockCounts counts = client->ctx.totals();
    result.lock_acquisitions += counts.holds;
    result.lock_contended += counts.contended_holds;
    result.backoff_rounds += counts.trylock_failures;
    result.lockfree_hits += counts.lockfree_hits;
    if (spec.perf) result.perf += client->perf;
  }
  GC_CHECK(replayed == total_ops,
           "load generator lost or duplicated operations");
  GC_CHECK(merged.count() == expected_samples,
           "latency histogram lost or duplicated samples");
  result.latency_samples = merged.count();
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
  return result;
}

}  // namespace gcaching::gcached
