// The simulation engines: verifying and fast.
//
// `Simulation` drives a policy one access at a time (the step-wise form is
// what adaptive adversaries need: they choose the next request by inspecting
// the live cache). `simulate()` runs a whole workload. Either way, all model
// invariants are enforced by `CacheContents`; a policy that cheats throws.
//
// `simulate_fast<Policy>()` is the whole-trace fast path: the policy type is
// a template parameter, so `on_hit` / `on_miss` devirtualize (every built-in
// policy is `final`) and inline into the loop, and per-access block ids are
// precomputed so the hot loop never makes a virtual BlockMap call. It runs
// the *same* CacheContents transitions in the same order as `Simulation`,
// so its SimStats are bit-identical to the verifying engine's — enforced by
// tests/test_fast_sim.cpp for every policy in the factory. Under the
// GC_FAST_SIM build configuration the hot-tier contracts additionally
// compile to nothing (see docs/PERF.md).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/block_map.hpp"
#include "core/cache_contents.hpp"
#include "core/policy.hpp"
#include "core/stats.hpp"
#include "core/trace.hpp"
#include "util/contracts.hpp"

namespace gcaching {

class Simulation {
 public:
  /// Binds `policy` to a fresh cache of `capacity` items over `map`.
  /// Both `map` and `policy` must outlive the Simulation.
  Simulation(const BlockMap& map, ReplacementPolicy& policy,
             std::size_t capacity);

  /// Process one request. Hit/miss classification, policy callbacks, and
  /// stat updates happen here.
  void access(ItemId item);

  /// Process every request of a trace in order.
  void run(const Trace& trace);

  const CacheContents& cache() const noexcept { return cache_; }
  const SimStats& stats() const noexcept { return stats_; }
  ReplacementPolicy& policy() noexcept { return policy_; }

 private:
  const BlockMap& map_;
  ReplacementPolicy& policy_;
  CacheContents cache_;
  SimStats stats_;
};

/// One-shot convenience: simulate `trace` through `policy` with a cache of
/// `capacity`. Calls `policy.prepare(trace)` first (offline policies), then
/// `policy.reset()` is NOT called — pass a fresh policy per run.
SimStats simulate(const BlockMap& map, const Trace& trace,
                  ReplacementPolicy& policy, std::size_t capacity);

/// Workload-flavored overload.
SimStats simulate(const Workload& workload, ReplacementPolicy& policy,
                  std::size_t capacity);

namespace detail {

GC_HOT_REGION_BEGIN(fast_engine_per_access)

// The verifying engine charges eviction stats per miss transaction, so
// evictions a policy performs on *hits* (IBLP's item-layer reshuffling)
// are excluded from SimStats. Policies that do that declare it with
// `kEvictsOutsideMiss`; only for them do we pay the per-miss counter
// snapshots. Loads are only legal inside a miss for every policy, so the
// load counters are always safe to read once at the end.
template <typename Policy>
inline constexpr bool kHitPathEvictions = [] {
  if constexpr (requires { Policy::kEvictsOutsideMiss; })
    return Policy::kEvictsOutsideMiss;
  else
    return false;
}();

// Policies that only ever load the requested item can skip the hit
// taxonomy: every hit is temporal and the touched bit is already set
// (record_requested_hit contract-checks the claim in checking builds).
template <typename Policy>
inline constexpr bool kRequestedOnly = [] {
  if constexpr (requires { Policy::kRequestedLoadsOnly; })
    return Policy::kRequestedLoadsOnly;
  else
    return false;
}();

/// One access of the fast engine. Only the counters that cannot be derived
/// afterwards are maintained here: misses, spatial hits, and (for
/// kHitPathEvictions policies) the per-miss eviction deltas.
/// accesses / hits / temporal_hits follow arithmetically in
/// `fast_finalize`, and the load counters live in CacheContents already.
/// `Stats` is SimStats, or any struct with its `misses` and `spatial_hits`
/// counters (and `evictions` and `wasted_sideloads` for kHitPathEvictions
/// policies), such as gcached's per-shard HoldCounts.
template <typename Policy, typename Stats>
inline void fast_step(CacheContents& cache, Policy& policy, Stats& stats,
                      ItemId item, BlockId block) {
  if (cache.contains(item)) {
    if constexpr (kRequestedOnly<Policy>) {
      cache.record_requested_hit(item);
    } else {
      if (cache.record_hit(item) == HitKind::kSpatial) ++stats.spatial_hits;
    }
    policy.on_hit(item);
    return;
  }
  ++stats.misses;
  if constexpr (kHitPathEvictions<Policy>) {
    const std::uint64_t evictions_before = cache.evictions();
    const std::uint64_t wasted_before = cache.wasted_sideloads();
    cache.begin_miss(item, block);
    policy.on_miss(item);
    cache.end_miss();
    stats.evictions += cache.evictions() - evictions_before;
    stats.wasted_sideloads += cache.wasted_sideloads() - wasted_before;
  } else {
    cache.begin_miss(item, block);
    policy.on_miss(item);
    cache.end_miss();
  }
}

/// Fills in the derivable counters after the last `fast_step`.
template <typename Policy>
inline void fast_finalize(const CacheContents& cache, SimStats& stats,
                          std::uint64_t num_accesses) {
  stats.accesses = num_accesses;
  // delayed_hits is only ever non-zero in the gcached runtime, where an
  // access parks on another client's fill register for its block
  // (src/gcached/sharded_cache.hpp); it reuses this finalizer, and the
  // sequential engines keep it at zero, so `hits = accesses - misses` holds
  // there unchanged.
  stats.hits = stats.accesses - stats.misses - stats.delayed_hits;
  stats.temporal_hits = stats.hits - stats.spatial_hits;
  stats.items_loaded = cache.items_loaded();
  stats.sideloads = cache.sideloads();
  if constexpr (!kHitPathEvictions<Policy>) {
    stats.evictions = cache.evictions();
    stats.wasted_sideloads = cache.wasted_sideloads();
  }
}

GC_HOT_REGION_END(fast_engine_per_access)

}  // namespace detail

/// Fast-path engine. `Policy` is the concrete (final) policy class; the
/// caller supplies each access's block id via `block_ids` (see
/// Trace::precompute_block_ids / compute_block_ids). Performs the exact
/// access/hit/miss transitions of `Simulation::access`, including the
/// prepare() call of the one-shot `simulate()`, and returns bit-identical
/// SimStats.
template <typename Policy>
SimStats simulate_fast(const BlockMap& map, const Trace& trace,
                       Policy& policy, std::size_t capacity,
                       std::span<const BlockId> block_ids) {
  GC_REQUIRE(block_ids.size() == trace.size(),
             "one precomputed block id per access is required");
  CacheContents cache(map, capacity);
  policy.attach(map, cache);
  policy.prepare(trace);
  SimStats stats;
  const std::vector<ItemId>& accesses = trace.accesses();
  GC_HOT_REGION_BEGIN(fast_engine_loop)
  for (std::size_t i = 0; i < accesses.size(); ++i)
    detail::fast_step(cache, policy, stats, accesses[i], block_ids[i]);
  GC_HOT_REGION_END(fast_engine_loop)
  detail::fast_finalize<Policy>(cache, stats, accesses.size());
  return stats;
}

/// Convenience overload: uses the trace's cached block ids when present
/// (Trace::precompute_block_ids), otherwise resolves them in a one-off pass
/// before entering the hot loop.
template <typename Policy>
SimStats simulate_fast(const BlockMap& map, const Trace& trace,
                       Policy& policy, std::size_t capacity) {
  BlockIdVector storage;
  const std::span<const BlockId> ids = resolve_block_ids(map, trace, storage);
  return simulate_fast(map, trace, policy, capacity, ids);
}

}  // namespace gcaching
