// The gcached concurrent runtime: CacheContents hash-partitioned into S
// shards by BLOCK id, each shard a fully independent single-owner cache.
//
// Why block-granular sharding: Definition 1 lets a miss load any subset of
// the missed item's block, and the block policies evict whole blocks. If two
// items of one block could land on different shards, a single miss
// transaction would have to take two locks and the model invariant "a block
// is resident in one place" would span shards. Hashing the BLOCK id instead
// makes every subset-of-block load, sideload, and whole-block eviction
// shard-local by construction — the paper's granularity-change machinery
// never crosses a shard boundary.
//
// Per-shard state transitions are *externalized*: a shard bundles
// {ShardLock and its hold counters, CacheContents, Policy} and the
// only mutation is `detail::fast_step` — the exact per-access transition of
// `simulate_fast` (core/simulator.hpp) — applied under the shard's exclusive
// lock. The existing policies therefore run unmodified, still assuming
// exclusive ownership of their metadata; the adapter's job is to make the
// ownership region explicit (one shard, one lock) instead of implicit (one
// simulation, one thread). This is also what anchors correctness: with one
// shard and one client thread the transition sequence is literally
// simulate_fast's, so SimStats are bit-identical (tests/test_gcached.cpp).
//
// Lock-free temporal hits, with deferred hit recency (after BP-Wrapper,
// Ding, Jiang and Zhang, ICDE 2009): a hit is temporal when its item is
// resident and was requested or touched since its load (the paper's
// taxonomy, Section 2), and that is one flag byte of CacheContents. So
// `access` first probes the byte with one relaxed atomic load
// (`CacheContents::temporal_resident`); on success the hit is linearised
// at that load and takes no hold. It counts itself in the calling client's
// count slot for the shard (a slot the cache owns) and queues its
// `policy.on_hit` in the client's DeferredHits buffer for that shard.
// Every other access takes the hold: a miss, a delayed hit, and a spatial
// hit (an untouched sideload, whose first touch writes the flag). Every
// counted hold (ShardHold) first applies the client's buffer for its
// shard, in order, skipping items no longer resident; a full buffer takes
// a hold for just that, and `drain` applies the rest. No shardable policy
// evicts on a hit (the static_assert below), so with one client the policy
// sees exactly fast_step's callback sequence; with several, a transition
// can miss at most kDeferredHits - 1 pending hits of each other client on
// its shard. A temporal hit writes only client-owned memory; it reads the
// CacheContents header, which no transition writes, and the item's flag
// byte.
//
// With S > 1 each shard owns capacity/S (±1) items, so the aggregate is a
// partitioned cache, not a shared one: stats differ from a monolithic run
// by capacity quantization, exactly like a set-associative cache differs
// from a fully-associative one. See docs/CONCURRENCY.md.
//
// Each shard lives in its own id space (`ShardLocalIds`): its blocks are
// numbered 0..b_s-1 in ascending global block id and its items 0..n_s-1 in
// ascending global item id, once, at construction. A shard's CacheContents
// and policy are sized to its own n_s items and b_s blocks, not
// to the whole universe, so S shards together hold one universe rather
// than S. `access` translates the caller's global ids before taking the
// lock; nothing behind it sees a global id. Both numberings preserve
// order, so every id-ordered scan or tie-break runs in the order it would
// over global ids and the stats are unchanged (docs/CONCURRENCY.md,
// "Shard-local ids").
//
// Misses may be charged a simulated backend fill latency
// (`GcachedConfig::fill_latency_ns`), waited out on the fill-register
// path: the missing client links its own fill register (FillRegister in
// shard_lock.hpp, its MSHR) for the block into its shard's in-flight
// list, RELEASES the shard lock, waits the fill out unlocked
// (shard_lock.hpp's `backend_fill`: it sleeps, then spins its last few
// microseconds), then re-acquires to commit the load/sideloads, unlink the
// register and wake coalesced waiters. A concurrent access that misses on
// an in-flight block parks on the register's FillGate instead of issuing a
// second fill and is charged a *delayed hit* (queuing cost = measured
// remaining fill time); when the fill sideloaded the waiter's item, the
// commit-time hit taxonomy classifies it a *free* delayed hit. A client
// has at most one fill in flight, so every miss finds either the block's
// register or its own free one, and fills to distinct blocks of ONE shard
// overlap up to the client count: fill-bound cells scale with offered
// concurrency, not just with the shard count. With no fill latency nothing
// is ever in flight: a miss commits its fill in the same hold that
// classified it.
//
// docs/CONCURRENCY.md ("Asynchronous fills and the fill registers")
// documents the lock hand-off protocol and the delayed-hit accounting.
//
// The access path carries no telemetry. Each shard's SimStats share and
// coalesced waiters, kept under its lock, plus the clients' count slots for
// the shard, IS the counter model: collect_stats sums it, and
// `shard_counters` hands it per shard to the gcmon monitor (obs/gcmon.hpp)
// as one obs::ShardCounters record, read through the same uncounted hold.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "core/block_map.hpp"
#include "core/cache_contents.hpp"
#include "core/simulator.hpp"
#include "core/stats.hpp"
#include "core/types.hpp"
#include "gcached/shard_lock.hpp"
#include "locality/sample.hpp"
#include "obs/counters.hpp"
#include "util/contracts.hpp"

namespace gcaching::gcached {

/// Seed of the shard hash. Distinct from any sampling seed a user would
/// plausibly pass (SHARDS sampling defaults to seed 1), so the sampled
/// block subset stays independent of the shard assignment.
inline constexpr std::uint64_t kShardHashSeed = 0x5ca1ab1eULL;

GC_HOT_REGION_BEGIN(gcached_shard_of_block)
/// Shard of a block: SplitMix64-finalizer hash (locality::sample_hash, the
/// same avalanching mix the sampler trusts) Lemire-reduced to [0, S). Works
/// for any S including non-powers of two; golden values are pinned by
/// tests/test_gcached.cpp so the assignment can never silently change.
inline std::size_t shard_of_block(BlockId block,
                                  std::size_t num_shards) noexcept {
  if (num_shards <= 1) return 0;
  const std::uint64_t h = locality::sample_hash(block, kShardHashSeed);
  return static_cast<std::size_t>(
      (static_cast<unsigned __int128>(h) *
       static_cast<unsigned __int128>(num_shards)) >>
      64);
}
GC_HOT_REGION_END(gcached_shard_of_block)

/// Convenience for tests/tools: the shard serving `item`'s block.
inline std::size_t shard_of_item(const BlockMap& map, ItemId item,
                                 std::size_t num_shards) {
  return shard_of_block(map.block_of(item), num_shards);
}

/// Dense shard-local ids for a block map split across `num_shards` shards
/// by shard_of_block. A shard's blocks are ranked by ascending global block
/// id and its items by ascending global item id; `shard_map(s)` is shard
/// s's partition in those ids, of the global map's kind:
///   * a uniform map gives `UniformBlockMap(n_s, B)`. A partial last block
///     has the largest global block id, so it ranks last in its shard and
///     the sub-map is uniform too. The item remap is then arithmetic (an
///     item keeps its offset in its block), with no per-item table. Every
///     shard's items 0..n_s-1 are a prefix of one identity table of
///     max_s n_s ids, built here, which all the shard maps share.
///     Counting the shards' items reads only the global map's block
///     sizes, never its item lists, so its own table is never built.
///   * any other map gives an `ExplicitBlockMap` and a per-item table.
/// A shard that owns no block gets a one-item placeholder map with the
/// global B (a BlockMap cannot be empty); no access ever reaches it.
/// Immutable after construction, so concurrent reads need no lock.
class ShardLocalIds {
 public:
  ShardLocalIds(const BlockMap& map, std::size_t num_shards)
      : local_block_(map.num_blocks()) {
    GC_REQUIRE(num_shards >= 1, "shard-local ids need at least one shard");
    std::vector<std::size_t> blocks(num_shards, 0);
    std::vector<std::size_t> items(num_shards, 0);
    for (BlockId b = 0; b < local_block_.size(); ++b) {
      const std::size_t s = shard_of_block(b, num_shards);
      local_block_[b] = static_cast<BlockId>(blocks[s]++);
      items[s] += map.block_size(b);
    }
    maps_.reserve(num_shards);
    if (dynamic_cast<const UniformBlockMap*>(&map) != nullptr) {
      block_size_ = map.max_block_size();
      auto identity = std::make_shared<std::vector<ItemId>>(
          *std::max_element(items.begin(), items.end()));
      std::iota(identity->begin(), identity->end(), ItemId{0});
      for (std::size_t s = 0; s < num_shards; ++s)
        maps_.push_back(items[s] == 0 ? placeholder(map)
                                      : std::make_unique<UniformBlockMap>(
                                            items[s], block_size_, identity));
      return;
    }
    local_item_.resize(map.num_items());
    std::vector<std::vector<std::vector<ItemId>>> members(num_shards);
    for (std::size_t s = 0; s < num_shards; ++s) members[s].resize(blocks[s]);
    std::vector<ItemId> next(num_shards, 0);
    for (ItemId item = 0; item < local_item_.size(); ++item) {
      const BlockId b = map.block_of(item);
      const std::size_t s = shard_of_block(b, num_shards);
      local_item_[item] = next[s]++;
      members[s][local_block_[b]].push_back(local_item_[item]);
    }
    for (std::size_t s = 0; s < num_shards; ++s)
      maps_.push_back(members[s].empty()
                          ? placeholder(map)
                          : std::make_unique<ExplicitBlockMap>(
                                std::move(members[s])));
  }

  /// Shard `s`'s partition over its local ids.
  const BlockMap& shard_map(std::size_t s) const {
    GC_REQUIRE(s < maps_.size(), "shard index out of range");
    return *maps_[s];
  }

  GC_HOT_REGION_BEGIN(gcached_shard_local_ids)
  /// `block`'s local id: its rank among its shard's blocks.
  BlockId local_block(BlockId block) const {
    GC_HOT_REQUIRE(block < local_block_.size(), "block id out of range");
    return local_block_[block];
  }

  /// `item`'s local id, given its global block and that block's local id.
  ItemId local_item(ItemId item, BlockId block, BlockId local) const {
    if (block_size_ != 0)
      return static_cast<ItemId>(std::size_t{local} * block_size_ +
                                 (item - std::size_t{block} * block_size_));
    GC_HOT_REQUIRE(item < local_item_.size(), "item id out of range");
    return local_item_[item];
  }
  GC_HOT_REGION_END(gcached_shard_local_ids)

 private:
  static std::unique_ptr<const BlockMap> placeholder(const BlockMap& map) {
    return std::make_unique<UniformBlockMap>(1, map.max_block_size());
  }

  std::vector<BlockId> local_block_;  ///< global block -> local block
  std::size_t block_size_ = 0;        ///< B of a uniform map, else 0
  std::vector<ItemId> local_item_;    ///< global item -> local item; explicit
  std::vector<std::unique_ptr<const BlockMap>> maps_;  ///< one per shard
};

/// Capacity share of shard `s` when `capacity` items are split across
/// `num_shards` shards: capacity/S plus one of the remainder items for the
/// first capacity%S shards, so the shares sum to exactly `capacity`.
inline std::size_t shard_capacity_share(std::size_t capacity,
                                        std::size_t num_shards,
                                        std::size_t s) {
  GC_REQUIRE(s < num_shards, "shard index out of range");
  return capacity / num_shards + (s < capacity % num_shards ? 1 : 0);
}

/// The counters a hold writes when it classifies an access without a
/// fill: the accesses it classified, and the two SimStats counters of
/// fast_step, which counts them here as it does in a SimStats.
struct HoldCounts {
  std::uint64_t accesses = 0;
  std::uint64_t misses = 0;
  std::uint64_t spatial_hits = 0;
};

/// A shard's first cache line: the lock and the counters every hold that
/// classifies an access writes. Under concurrent clients each line a hold
/// writes migrates to the holder's core, so these share one; a temporal
/// hit takes no hold and writes none of it.
struct alignas(64) HoldLine {
  ShardLock lock;
  HoldCounts counts;  ///< under `lock`
};
static_assert(sizeof(HoldLine) == 64, "a hold's counters fit the lock's line");

/// How a miss's simulated backend fill is slept. The fill-register path is
/// the only one; the enum and `GcachedConfig::fill_mode` stay so existing
/// callers that name it keep compiling.
enum class FillMode {
  kAsync,  ///< lock released across the fill, misses coalesce
};

struct GcachedConfig {
  std::size_t num_shards = 1;
  std::size_t capacity = 0;
  /// Simulated backend fill charged on every miss. 0 = pure in-memory
  /// transitions (the differential-test configuration).
  std::uint64_t fill_latency_ns = 0;
  FillMode fill_mode = FillMode::kAsync;  ///< unread: one fill path
};

/// Type-erased runtime handle (the template below is the only
/// implementation). One virtual call per operation — noise next to the lock
/// acquire — in exchange for spec-string construction in tools and benches.
class ConcurrentCache {
 public:
  virtual ~ConcurrentCache() = default;

  ConcurrentCache() = default;
  ConcurrentCache(const ConcurrentCache&) = delete;
  ConcurrentCache& operator=(const ConcurrentCache&) = delete;

  /// One client operation: hit/miss classification, policy transition, and
  /// stat updates for `item`. A temporal hit takes no lock; every other
  /// access runs under its shard's exclusive lock. `block` must be `item`'s
  /// block id (precomputed, as in the fast engines). A hit's policy update
  /// is deferred in `ctx` (see file comment); the first access binds `ctx`
  /// to this cache, and a context bound to another cache is a
  /// GC_HOT_REQUIRE violation.
  virtual void access(ClientContext& ctx, ItemId item, BlockId block) = 0;

  /// Applies the policy updates of `ctx`'s still-deferred hits, once the
  /// client is done. Cold path; its holds are not counted. A context that
  /// never accessed is a no-op.
  virtual void drain(ClientContext& ctx) = 0;

  /// Aggregate SimStats across shards. Takes every shard lock; the result
  /// is exact when the runtime is quiesced (no in-flight clients) and a
  /// consistent-per-shard snapshot otherwise.
  virtual SimStats collect_stats() = 0;

  /// Per-shard counters for the gcmon monitor, from the same per-shard
  /// snapshot as collect_stats (one uncounted hold of each shard lock):
  /// the shard's SimStats share, its clients' lock counts, its coalesced
  /// waiters, occupancy and in-flight fills. Cold path; safe during
  /// traffic.
  virtual std::vector<obs::ShardCounters> shard_counters() = 0;

  virtual std::size_t num_shards() const = 0;
  virtual std::size_t capacity() const = 0;
  /// Shard `s`'s capacity share (see shard_capacity_share).
  virtual std::size_t shard_capacity(std::size_t s) const = 0;
  virtual std::string policy_name() const = 0;
};

/// The ConcurrentPolicy adapter: `Policy` is any concrete policy class
/// usable with `detail::fast_step` whose state is derivable from (map,
/// per-shard cache) alone — no offline prepare(), no cross-shard reads.
/// Policies outside that envelope cannot shard; `make_concurrent_cache`
/// (gcached.hpp) documents the escape hatch.
template <typename Policy, typename MakePolicy>
class ShardedCache final : public ConcurrentCache {
  // Deferred hit recency relies on it: with no eviction on a hit, applying
  // a client's pending on_hit calls at the start of its next hold is the
  // sequential callback order.
  static_assert(!detail::kHitPathEvictions<Policy>,
                "a policy that evicts on a hit cannot defer its hits");

 public:
  /// `make_policy()` returns a fresh Policy by value (guaranteed elision),
  /// called once per shard.
  ShardedCache(const std::shared_ptr<const BlockMap>& map,
               const GcachedConfig& cfg, MakePolicy make_policy,
               std::string policy_name)
      : cfg_(validated(map, cfg)),
        name_(std::move(policy_name)),
        ids_(*map, cfg.num_shards),
        slots_(cfg_.num_shards) {
    shards_.reserve(cfg_.num_shards);
    for (std::size_t s = 0; s < cfg_.num_shards; ++s) {
      shards_.push_back(std::make_unique<Shard>(
          ids_.shard_map(s),
          shard_capacity_share(cfg_.capacity, cfg_.num_shards, s),
          make_policy));
      Shard& shard = *shards_.back();
      // The exact setup sequence of simulate_fast, minus prepare() (online
      // policies only — enforced by the factory's escape hatch).
      shard.policy.attach(ids_.shard_map(s), shard.cache);
    }
  }

  GC_HOT_REGION_BEGIN(gcached_access)
  /// The one access path. A temporal hit is classified by one relaxed
  /// load of its flag byte and takes no hold: the client counts it in its
  /// own slot and defers its policy update, and takes a hold only when
  /// that fills its buffer. Otherwise, per iteration, one exclusive hold
  /// classifies the access, after applying the client's deferred hits on
  /// the shard. A hit, or any miss when fills are free, is the exact
  /// fast_step transition inside that hold. A miss with a fill either
  /// coalesces onto the block's in-flight fill (parks on its FillGate, then
  /// re-classifies) or owns a fill: it links the client's own fill
  /// register, waits the fill out UNLOCKED and re-acquires to commit. No
  /// thread ever sleeps while holding the shard. docs/CONCURRENCY.md
  /// documents the protocol; tests/test_gcached.cpp pins coalescing,
  /// conservation, and the free-delayed-hit taxonomy.
  void access(ClientContext& ctx, ItemId global_item,
              BlockId global_block) override {
    if (ctx.cache != this) bind_client(ctx);
    const std::size_t s = shard_of_block(global_block, shards_.size());
    Shard& shard = *shards_[s];
    const BlockId block = ids_.local_block(global_block);
    const ItemId item = ids_.local_item(global_item, global_block, block);
    GC_HOT_REQUIRE(shard.cache.map().block_of(item) == block,
                   "item does not belong to the supplied block");
    if (shard.cache.temporal_resident(item)) {
      // A temporal hit, linearised at that load. A miss that evicts the
      // item afterwards only makes apply_deferred skip its update.
      ctx.count_lockfree_hit(s);
      DeferredHits& deferred = ctx.deferred[s];
      deferred.items[deferred.size] = item;
      if (++deferred.size == kDeferredHits) {
        ShardHold hold(shard, ctx, s);  // applies the full buffer
      }
      return;
    }
    std::uint64_t waited_ns = 0;
    for (;;) {
      FillGate* wait_gate = nullptr;
      std::uint64_t wait_epoch = 0;
      {
        ShardHold hold(shard, ctx, s);
        const bool resident = shard.cache.contains(item);
        if (resident && waited_ns != 0) {
          // Resident after a wait: a DELAYED hit — the access was served by
          // a fill already in flight when it arrived. Not a hit (the item
          // was absent at access time), not a miss (no fill was issued).
          // The hit taxonomy doubles as the free-delayed-hit classifier:
          // kSpatial means the waiter's item was only ever *sideloaded* by
          // the pending fill — spatial locality paid for the wait.
          commit_delayed_hit(shard, item, waited_ns);
          return;
        }
        if (resident || cfg_.fill_latency_ns == 0) {
          // A hit (mostly spatial), or a miss whose free fill is never in
          // flight, so it claims and commits it right here: fast_step.
          step(shard, item, block);
          return;
        }
        // Miss. Coalesce onto an in-flight fill of this block if there is
        // one; otherwise this client's own register takes the fill. It is
        // free: the client has no other fill in flight.
        if (FillRegister* inflight = find_fill(shard, block)) {
          ++shard.coalesced;
          wait_gate = &inflight->gate;
          wait_epoch = wait_gate->epoch();
        } else {
          link_fill(shard, *ctx.fill, block);
        }
      }  // shard released — nothing below blocks while holding it.
      if (wait_gate != nullptr) {
        // If the commit already happened, the epoch has moved and this
        // returns immediately (see FillGate). Re-classify after the wake:
        // the usual outcome is the delayed-hit branch above, but the item
        // may not have been sideloaded (item policies never sideload) or
        // may already be evicted again — then the loop simply retries as a
        // fresh access, fill included.
        waited_ns += wait_gate->await_past(wait_epoch);
        continue;
      }
      // This thread owns the fill: sleep it with no lock held, then
      // re-acquire to commit. Other threads hit/miss/fill this shard's
      // OTHER blocks during the sleep — that overlap is the whole point.
      backend_fill(cfg_.fill_latency_ns);
      commit_fill(ctx, shard, s, item, block);
      return;
    }
  }
  GC_HOT_REGION_END(gcached_access)

  void drain(ClientContext& ctx) override {
    if (ctx.cache == nullptr) return;
    GC_REQUIRE(ctx.cache == this, "a ClientContext serves exactly one cache");
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      if (ctx.deferred[s].size == 0) continue;
      // An uncounted hold, like the cold readers': a drain is not an op.
      ShardGuard guard(shards_[s]->lock);
      apply_deferred(*shards_[s], ctx.deferred[s]);
    }
  }

  SimStats collect_stats() override {
    SimStats total;
    for_each_snapshot([&total](const Shard&, const SimStats& stats,
                               const LockCounts&) { total += stats; });
    return total;
  }

  std::vector<obs::ShardCounters> shard_counters() override {
    std::vector<obs::ShardCounters> out;
    out.reserve(shards_.size());  // nothing allocates under a guard
    for_each_snapshot([&out](const Shard& shard, const SimStats& stats,
                             const LockCounts& locks) {
      out.push_back({stats, locks, shard.coalesced, shard.cache.occupancy(),
                     inflight_fills(shard)});
    });
    return out;
  }

  std::size_t num_shards() const override { return shards_.size(); }
  std::size_t capacity() const override { return cfg_.capacity; }

  std::size_t shard_capacity(std::size_t s) const override {
    GC_REQUIRE(s < shards_.size(), "shard index out of range");
    return shards_[s]->cache.capacity();
  }

  std::string policy_name() const override { return name_; }

 private:
  static const GcachedConfig& validated(
      const std::shared_ptr<const BlockMap>& map, const GcachedConfig& cfg) {
    GC_REQUIRE(map != nullptr, "gcached needs a block map");
    GC_REQUIRE(cfg.num_shards >= 1, "gcached needs at least one shard");
    GC_REQUIRE(cfg.capacity >= cfg.num_shards,
               "gcached needs at least one item of capacity per shard");
    return cfg;
  }

  // A shard starts with its HoldLine, the lock's line, which also keeps
  // neighbouring shards' locks from false-sharing under cross-shard
  // traffic. `counts.accesses` is counted there, not in a slot: hits are
  // derived as accesses - misses - delayed hits, so a snapshot reads it in
  // the hold that reads misses. CacheContents starts on the next line (it
  // is 64-aligned), with the header a temporal hit reads apart from the
  // fields a miss writes. The fill path's fields come last: only a hold
  // with a fill latency writes them. docs/CONCURRENCY.md, "What a hold
  // writes", maps every line a hold writes.
  struct Shard : HoldLine {
    CacheContents cache;
    Policy policy;
    /// Head of the in-flight fill registers' list; under `lock` only.
    FillRegister* fills = nullptr;
    // The SimStats delayed-hit counters of the same names; under `lock`.
    std::uint64_t delayed_hits = 0;
    std::uint64_t free_delayed_hits = 0;
    std::uint64_t delayed_hit_wait_ns = 0;
    std::uint64_t coalesced = 0;  ///< accesses that parked on a fill's gate
    bool writer_active = false;  ///< checking builds only; guarded by `lock`

    Shard(const BlockMap& map, std::size_t capacity, MakePolicy& make)
        : cache(map, capacity), policy(make()) {}

    /// Its SimStats counters that fast_finalize cannot derive.
    SimStats partial() const noexcept {
      SimStats stats;
      stats.misses = counts.misses;
      stats.spatial_hits = counts.spatial_hits;
      stats.delayed_hits = delayed_hits;
      stats.free_delayed_hits = free_delayed_hits;
      stats.delayed_hit_wait_ns = delayed_hit_wait_ns;
      return stats;
    }
  };

  /// Binds a client's first access to this cache: one DeferredHits buffer
  /// per shard, sized here, before any hold (nothing allocates under a
  /// guard), and a fresh count slot and fill register enrolled in `slots_`.
  /// A context already bound to another cache is rejected; a build without
  /// hot checks rebinds it and drops its pending hits, which loses recency
  /// updates but never applies a foreign id (its counts stay in the first
  /// cache's slot).
  void bind_client(ClientContext& ctx) {
    GC_HOT_REQUIRE(ctx.cache == nullptr,
                   "a ClientContext serves exactly one cache");
    ctx.cache = this;
    ctx.deferred.assign(shards_.size(), DeferredHits{});
    slots_.enroll(ctx);
  }

  /// Calls `fn(shard, stats, counts)` for every shard under one uncounted
  /// hold of its lock (a plain ShardGuard): `counts` is every client's lock
  /// counts on the shard, summed from `slots_` first, and `stats` its
  /// SimStats share finalized with its accesses under holds plus those
  /// lock-free hits. Each lock-free hit is temporal, so fast_finalize's
  /// derivation of hits and temporal hits stays exact. It finalizes a COPY
  /// of the hold counters, so the shard keeps counting in them.
  template <typename Fn>
  void for_each_snapshot(Fn&& fn) {
    const std::vector<LockCounts> counts = slots_.per_shard();
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      Shard& shard = *shards_[s];
      ShardGuard guard(shard.lock);
      SimStats stats = shard.partial();
      detail::fast_finalize<Policy>(
          shard.cache, stats,
          shard.counts.accesses + counts[s].lockfree_hits);
      fn(shard, stats, counts[s]);
    }
  }

  /// The registers linked on `shard`: its fills in flight. Under its lock.
  static std::size_t inflight_fills(const Shard& shard) {
    std::size_t n = 0;
    for (const FillRegister* r = shard.fills; r != nullptr; r = r->next) ++n;
    return n;
  }

  GC_HOT_REGION_BEGIN(gcached_hold)
  /// One client's counted exclusive hold of a shard: takes the lock, checks
  /// the single-writer-per-shard invariant, counts the hold in the client's
  /// slot, and applies the client's deferred hits on the shard, so every
  /// transition the hold makes follows the client's earlier hits. The
  /// check compiles out under GC_FAST_SIM. The exclusive lock makes the
  /// writer flag race-free, so a firing check means a lock-discipline bug
  /// (an access path that skipped the ShardHold), not a data race.
  class ShardHold {
   public:
    ShardHold(Shard& shard, ClientContext& ctx, std::size_t s)
        : shard_(shard), guard_(shard.lock) {
      GC_HOT_CHECK(!shard_.writer_active,
                   "single-writer-per-shard invariant violated");
      if constexpr (kHotChecksEnabled) shard_.writer_active = true;
      ctx.count_hold(s, guard_.trylock_failures());
      apply_deferred(shard_, ctx.deferred[s]);
    }
    ~ShardHold() {
      if constexpr (kHotChecksEnabled) shard_.writer_active = false;
    }
    ShardHold(const ShardHold&) = delete;
    ShardHold& operator=(const ShardHold&) = delete;

   private:
    Shard& shard_;
    ShardGuard guard_;
  };

  /// The fast_step transition of one access. Must run inside a ShardHold.
  /// fast_step maintains only the non-derivable counters (misses, spatial
  /// hits); fast_finalize derives the rest from the access count.
  static void step(Shard& shard, ItemId item, BlockId block) {
    detail::fast_step(shard.cache, shard.policy, shard.counts, item, block);
    ++shard.counts.accesses;
  }

  /// Replays a client's deferred hits on `shard` in hit order, skipping
  /// items another client's miss evicted since (the policy knows only
  /// residents), and empties the buffer. Must run under the shard's lock.
  static void apply_deferred(Shard& shard, DeferredHits& deferred) {
    for (std::uint32_t i = 0; i < deferred.size; ++i)
      if (shard.cache.contains(deferred.items[i]))
        shard.policy.on_hit(deferred.items[i]);
    deferred.size = 0;
  }

  /// The in-flight register filling `block` on `shard`, or null. A block
  /// has at most one: a miss on a linked block coalesces instead of linking
  /// its own. The list holds at most one register per client. Like
  /// link_fill and unlink_fill, must run under the shard's lock.
  static FillRegister* find_fill(const Shard& shard, BlockId block) {
    for (FillRegister* r = shard.fills; r != nullptr; r = r->next)
      if (r->block == block) return r;
    return nullptr;
  }

  static void link_fill(Shard& shard, FillRegister& reg, BlockId block) {
    reg.block = block;
    reg.next = shard.fills;
    shard.fills = &reg;
  }

  static void unlink_fill(Shard& shard, FillRegister& reg) {
    FillRegister** at = &shard.fills;
    while (*at != &reg) {
      GC_HOT_CHECK(*at != nullptr, "unlinked a fill register not in flight");
      at = &(*at)->next;
    }
    *at = reg.next;
  }

  /// Commit of the fill this client waited out on its linked register.
  /// Re-acquires the shard. The item is still absent: only a fill of its
  /// block loads it, and every other miss on the block coalesced onto this
  /// register. fast_step re-probes residency under this same hold and
  /// takes its miss arm: begin_miss/on_miss/end_miss, the exact sequential
  /// transition, now merely time-shifted to the fill's completion.
  void commit_fill(ClientContext& ctx, Shard& shard, std::size_t s,
                   ItemId item, BlockId block) {
    ShardHold hold(shard, ctx, s);
    GC_HOT_CHECK(!shard.cache.contains(item),
                 "a fill's item was loaded while its fill was in flight");
    step(shard, item, block);
    // Unlink the register and wake every coalesced waiter. Both happen
    // under this same hold, so a waiter never reads the epoch of a
    // register it cannot find (see FillGate's protocol comment).
    unlink_fill(shard, *ctx.fill);
    ctx.fill->gate.advance();
  }

  /// The delayed-hit transition of a woken waiter whose item the fill
  /// loaded. Must run inside a ShardHold. Mirrors fast_step's hit arm for
  /// the cache/policy transition, but charges the dedicated delayed-hit
  /// counters instead of the hit taxonomy: delayed hits are excluded from
  /// hits (and thus from temporal/spatial) by `fast_finalize`'s
  /// `hits = accesses - misses - delayed_hits`.
  void commit_delayed_hit(Shard& shard, ItemId item, std::uint64_t wait_ns) {
    HitKind kind = HitKind::kTemporal;
    if constexpr (detail::kRequestedOnly<Policy>) {
      // Requested-loads-only policies never sideload, so a resident waiter
      // item was the fill's own requested load — never a free delayed hit.
      shard.cache.record_requested_hit(item);
    } else {
      kind = shard.cache.record_hit(item);
    }
    shard.policy.on_hit(item);
    ++shard.delayed_hits;
    if (kind == HitKind::kSpatial) ++shard.free_delayed_hits;
    shard.delayed_hit_wait_ns += wait_ns;
    ++shard.counts.accesses;
  }
  GC_HOT_REGION_END(gcached_hold)

  GcachedConfig cfg_;
  std::string name_;
  ShardLocalIds ids_;  ///< owns the sub-maps the shards' caches refer to
  // Policies are neither copyable nor movable, so shards live behind
  // unique_ptr.
  std::vector<std::unique_ptr<Shard>> shards_;
  ClientSlots slots_;  ///< every bound client's lock counts
};

}  // namespace gcaching::gcached
