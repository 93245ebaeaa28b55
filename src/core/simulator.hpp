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
//
// `simulate_column<Policy>()` batches a whole capacity column of one
// (workload, policy) row into a single trace pass by advancing one cache
// lane per capacity together — the sweep engine's shared-pass mode
// (tests/test_sweep_batched.cpp holds it to bit-identical stats too).
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "core/block_map.hpp"
#include "core/cache_contents.hpp"
#include "core/policy.hpp"
#include "core/stats.hpp"
#include "core/trace.hpp"
#include "obs/obs.hpp"
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
template <typename Policy>
inline void fast_step(CacheContents& cache, Policy& policy, SimStats& stats,
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

// Policies whose hit handling distributes over a whole stretch of
// consecutive same-block hits declare `kBatchesSameBlockRuns` and provide
// `on_hit_run(items, block)`, equivalent to calling on_hit per access in
// order. The engines then dispatch one policy call per maximal hit run
// instead of one per access — post-sampling and block-granular traces are
// dominated by exactly such runs. Batching policies must not touch
// residency on the hit path (no loads — illegal outside a miss anyway —
// and no evictions), which is what keeps the batched transition sequence
// identical to the per-access one.
template <typename Policy>
inline constexpr bool kBatchesRuns = [] {
  if constexpr (requires { Policy::kBatchesSameBlockRuns; })
    return Policy::kBatchesSameBlockRuns;
  else
    return false;
}();

/// One maximal stretch of consecutive hits, all to residents of `block`,
/// dispatched as a single policy call. The per-access CacheContents
/// transitions (flag updates, hit taxonomy, logical clock) are unchanged —
/// only the policy dispatch is coalesced.
template <typename Policy>
inline void fast_hit_run(CacheContents& cache, Policy& policy, SimStats& stats,
                         std::span<const ItemId> items, BlockId block) {
  static_assert(!kHitPathEvictions<Policy>,
                "a policy that evicts on hits cannot batch hit runs");
  for (const ItemId item : items) {
    GC_HOT_REQUIRE(cache.map().block_of(item) == block,
                   "batched hit run crosses a block boundary");
    GC_HOT_REQUIRE(cache.contains(item),
                   "batched hit run contains a non-resident item");
    if constexpr (kRequestedOnly<Policy>) {
      cache.record_requested_hit(item);
    } else {
      if (cache.record_hit(item) == HitKind::kSpatial) ++stats.spatial_hits;
    }
  }
  policy.on_hit_run(items, block);
}

/// Engine loop body for batching policies: accesses[0, n) all map to
/// `block` (one same-block run of the trace). Alternates maximal hit
/// stretches — handed to the policy in one `fast_hit_run` call — with
/// individual misses stepped exactly like `fast_step`'s miss path. A miss
/// may load siblings, so residency is re-probed when the stretch resumes.
template <typename Policy>
inline void fast_run(CacheContents& cache, Policy& policy, SimStats& stats,
                     const ItemId* accesses, std::size_t n, BlockId block) {
  std::size_t k = 0;
  while (k < n) {
    std::size_t h = k;
    while (h < n && cache.contains(accesses[h])) ++h;
    if (h > k)
      fast_hit_run(cache, policy, stats,
                   std::span<const ItemId>(accesses + k, h - k), block);
    if (h < n) {
      ++stats.misses;
      cache.begin_miss(accesses[h], block);
      policy.on_miss(accesses[h]);
      cache.end_miss();
      ++h;
    }
    k = h;
  }
}

/// Fills in the derivable counters after the last `fast_step`.
template <typename Policy>
inline void fast_finalize(const CacheContents& cache, SimStats& stats,
                          std::uint64_t num_accesses) {
  stats.accesses = num_accesses;
  // delayed_hits is only ever non-zero for the gcached MSHR fill path
  // (src/gcached/sharded_cache.hpp), which reuses this finalizer; the
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

/// Live running totals mid-run: the fast engines maintain only the
/// non-derivable counters in-loop, so a timeline snapshot applies
/// `fast_finalize` to a *copy* of the partial stats. Window-boundary cost
/// only — GC_OBS_TICK evaluates this expression solely when a window closes.
template <typename Policy>
inline SimStats fast_live_snapshot(const CacheContents& cache, SimStats partial,
                                   std::uint64_t accesses_so_far) {
  fast_finalize<Policy>(cache, partial, accesses_so_far);
  return partial;
}

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
  cache.set_load_time_tracking(false);  // cold feature; saves a store per load
  SimStats stats;
  GC_OBS_TIMELINE(obs_tl);
  GC_OBS_TIMELINE_OPEN(obs_tl, {capacity}, trace.size());
  const std::vector<ItemId>& accesses = trace.accesses();
  // The loop is kept in two copies so the common no-timeline case runs the
  // exact uninstrumented code: a tick inside the loop — even one that only
  // null-tests a hoisted pointer — forces the partial stats out of registers
  // at every call-reachable point and costs ~10% throughput.
  GC_HOT_REGION_BEGIN(fast_engine_loop)
  if (GC_OBS_ATTACHED(obs_tl)) {
    for (std::size_t i = 0; i < accesses.size(); ++i) {
      detail::fast_step(cache, policy, stats, accesses[i], block_ids[i]);
      GC_OBS_TICK(obs_tl, 0,
                  detail::fast_live_snapshot<Policy>(cache, stats, i + 1));
    }
  } else if constexpr (detail::kBatchesRuns<Policy>) {
    // Same-block runs are detected from the precomputed block-id stream and
    // handed to the policy one run at a time. (The timeline branch above
    // stays per-access — a window boundary can fall inside a run.)
    std::size_t i = 0;
    while (i < accesses.size()) {
      const BlockId block = block_ids[i];
      std::size_t j = i + 1;
      while (j < accesses.size() && block_ids[j] == block) ++j;
      // Length-1 runs (the common case on traces without spatial locality)
      // take the plain per-access step; the run machinery only pays for
      // itself on actual stretches.
      if (j - i == 1)
        detail::fast_step(cache, policy, stats, accesses[i], block);
      else
        detail::fast_run(cache, policy, stats, accesses.data() + i, j - i,
                         block);
      i = j;
    }
  } else {
    for (std::size_t i = 0; i < accesses.size(); ++i)
      detail::fast_step(cache, policy, stats, accesses[i], block_ids[i]);
  }
  GC_HOT_REGION_END(fast_engine_loop)
  detail::fast_finalize<Policy>(cache, stats, accesses.size());
  GC_OBS_TIMELINE_CLOSE(obs_tl, 0, stats);
  return stats;
}

/// Capacity-batched column engine: all capacities of one (workload, policy)
/// row in a SINGLE pass over the trace. Each capacity keeps its own cache
/// state and policy instance (a "lane"); every access is stepped through all
/// lanes before the next access is read, so the trace and block-id streams
/// are pulled through the memory hierarchy once per row instead of once per
/// cell. Each lane runs the exact `fast_step` transitions of
/// `simulate_fast`, so stats[i] is bit-identical to a per-cell run at
/// capacities[i].
///
/// `make_policy(capacity)` must return a fresh `Policy` by value (guaranteed
/// elision — policies are neither copyable nor movable); it is called once
/// per capacity, letting capacity-dependent configs (e.g. IBLP partitions)
/// resolve per lane.
template <typename Policy, typename MakePolicy>
std::vector<SimStats> simulate_column(const BlockMap& map, const Trace& trace,
                                      std::span<const std::size_t> capacities,
                                      std::span<const BlockId> block_ids,
                                      MakePolicy&& make_policy) {
  GC_REQUIRE(block_ids.size() == trace.size(),
             "one precomputed block id per access is required");
  // CacheContents holds a reference and policies delete their copy ops, so
  // lanes live behind unique_ptr rather than in a flat vector.
  struct Lane {
    CacheContents cache;
    Policy policy;
    SimStats stats;
    Lane(const BlockMap& m, std::size_t capacity, MakePolicy& mk)
        : cache(m, capacity), policy(mk(capacity)) {}
  };
  std::vector<std::unique_ptr<Lane>> lanes;
  lanes.reserve(capacities.size());
  for (const std::size_t capacity : capacities) {
    lanes.push_back(std::make_unique<Lane>(map, capacity, make_policy));
    Lane& lane = *lanes.back();
    lane.policy.attach(map, lane.cache);
    lane.policy.prepare(trace);
    lane.cache.set_load_time_tracking(false);
  }
  GC_OBS_TIMELINE(obs_tl);
  GC_OBS_TIMELINE_OPEN(obs_tl, capacities, trace.size());
  const std::vector<ItemId>& accesses = trace.accesses();
  // Two copies for the same reason as the fast_engine_loop: the idle path
  // must stay tick-free so per-lane stats keep their registers.
  GC_HOT_REGION_BEGIN(column_engine_loop)
  if (GC_OBS_ATTACHED(obs_tl)) {
    for (std::size_t i = 0; i < accesses.size(); ++i) {
      const ItemId item = accesses[i];
      const BlockId block = block_ids[i];
      for (std::size_t l = 0; l < lanes.size(); ++l) {
        Lane& lane = *lanes[l];
        detail::fast_step(lane.cache, lane.policy, lane.stats, item, block);
        GC_OBS_TICK(obs_tl, l,
                    detail::fast_live_snapshot<Policy>(lane.cache, lane.stats,
                                                       i + 1));
      }
    }
  } else if constexpr (detail::kBatchesRuns<Policy>) {
    // Runs are detected once and replayed through every lane; each lane
    // re-probes residency itself, so per-lane stats stay bit-identical to
    // independent per-cell runs.
    std::size_t i = 0;
    while (i < accesses.size()) {
      const BlockId block = block_ids[i];
      std::size_t j = i + 1;
      while (j < accesses.size() && block_ids[j] == block) ++j;
      for (std::size_t l = 0; l < lanes.size(); ++l) {
        Lane& lane = *lanes[l];
        // Same singleton fast path as simulate_fast: length-1 runs skip the
        // run machinery.
        if (j - i == 1)
          detail::fast_step(lane.cache, lane.policy, lane.stats, accesses[i],
                            block);
        else
          detail::fast_run(lane.cache, lane.policy, lane.stats,
                           accesses.data() + i, j - i, block);
      }
      i = j;
    }
  } else {
    for (std::size_t i = 0; i < accesses.size(); ++i) {
      const ItemId item = accesses[i];
      const BlockId block = block_ids[i];
      for (std::size_t l = 0; l < lanes.size(); ++l) {
        Lane& lane = *lanes[l];
        detail::fast_step(lane.cache, lane.policy, lane.stats, item, block);
      }
    }
  }
  GC_HOT_REGION_END(column_engine_loop)
  std::vector<SimStats> out;
  out.reserve(lanes.size());
  for (std::size_t l = 0; l < lanes.size(); ++l) {
    Lane& lane = *lanes[l];
    detail::fast_finalize<Policy>(lane.cache, lane.stats, accesses.size());
    GC_OBS_TIMELINE_CLOSE(obs_tl, l, lane.stats);
    out.push_back(lane.stats);
  }
  return out;
}

/// Convenience overload: uses the trace's cached block ids when present
/// (Trace::precompute_block_ids), otherwise resolves them in a one-off pass
/// before entering the hot loop.
template <typename Policy>
SimStats simulate_fast(const BlockMap& map, const Trace& trace,
                       Policy& policy, std::size_t capacity) {
  std::vector<BlockId> storage;
  const std::span<const BlockId> ids = resolve_block_ids(map, trace, storage);
  return simulate_fast(map, trace, policy, capacity, ids);
}

}  // namespace gcaching
