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
// {ShardLock, CacheContents, Policy, partial SimStats, access count} and the
// only mutation is `detail::fast_step` — the exact per-access transition of
// `simulate_fast` (core/simulator.hpp) — applied under the shard's exclusive
// lock. The existing policies therefore run unmodified, still assuming
// exclusive ownership of their metadata; the adapter's job is to make the
// ownership region explicit (one shard, one lock) instead of implicit (one
// simulation, one thread). This is also what anchors correctness: with one
// shard and one client thread the transition sequence is literally
// simulate_fast's, so SimStats are bit-identical (tests/test_gcached.cpp).
//
// With S > 1 each shard owns capacity/S (±1) items, so the aggregate is a
// partitioned cache, not a shared one: stats differ from a monolithic run
// by capacity quantization, exactly like a set-associative cache differs
// from a fully-associative one. See docs/CONCURRENCY.md.
//
// Misses may be charged a simulated backend fill latency
// (`GcachedConfig::fill_latency_ns`), slept on the MSHR path: the missing
// thread registers an in-flight entry for the block in its shard's
// MshrTable (gcached/mshr.hpp), RELEASES the shard lock, sleeps the fill
// unlocked (shard_lock.hpp's `backend_fill`), then re-acquires to commit
// the load/sideloads and wake coalesced waiters. A concurrent access that
// misses on an in-flight block parks on the entry's FillGate instead of
// issuing a second fill and is charged a *delayed hit* (queuing cost =
// measured remaining fill time); when the fill sideloaded the waiter's
// item, the commit-time hit taxonomy classifies it a *free* delayed hit.
// Fills to distinct blocks of ONE shard overlap (up to `mshr_entries` of
// them), so fill-bound cells scale with offered concurrency, not just with
// the shard count. With no fill latency nothing is ever in flight: a miss
// claims and commits its fill in the same hold that classified it.
//
// docs/CONCURRENCY.md ("Asynchronous fills and the MSHR table") documents
// the lock hand-off protocol and the delayed-hit accounting.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/block_map.hpp"
#include "core/cache_contents.hpp"
#include "core/simulator.hpp"
#include "core/stats.hpp"
#include "core/types.hpp"
#include "gcached/mshr.hpp"
#include "gcached/shard_lock.hpp"
#include "locality/sample.hpp"
#include "obs/shard_metrics.hpp"
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

/// Capacity share of shard `s` when `capacity` items are split across
/// `num_shards` shards: capacity/S plus one of the remainder items for the
/// first capacity%S shards, so the shares sum to exactly `capacity`.
inline std::size_t shard_capacity_share(std::size_t capacity,
                                        std::size_t num_shards,
                                        std::size_t s) {
  GC_REQUIRE(s < num_shards, "shard index out of range");
  return capacity / num_shards + (s < capacity % num_shards ? 1 : 0);
}

/// How a miss's simulated backend fill is slept. The MSHR path is the only
/// one; the enum and `GcachedConfig::fill_mode` stay so existing callers
/// that name it keep compiling.
enum class FillMode {
  kAsync,  ///< MSHR path: lock released across the fill, misses coalesce
};

struct GcachedConfig {
  std::size_t num_shards = 1;
  std::size_t capacity = 0;
  /// Simulated backend fill charged on every miss. 0 = pure in-memory
  /// transitions (the differential-test configuration).
  std::uint64_t fill_latency_ns = 0;
  FillMode fill_mode = FillMode::kAsync;  ///< unread: one fill path
  /// Per-shard MSHR entries: max concurrently in-flight block fills per
  /// shard. A miss arriving with every register busy falls back to an
  /// unqueued (non-coalescible) fill rather than waiting for a register.
  std::size_t mshr_entries = 8;
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
  /// stat updates for `item`, under its shard's exclusive lock. `block`
  /// must be `item`'s block id (precomputed, as in the fast engines).
  virtual void access(ClientContext& ctx, ItemId item, BlockId block) = 0;

  /// Aggregate SimStats across shards. Takes every shard lock; the result
  /// is exact when the runtime is quiesced (no in-flight clients) and a
  /// consistent-per-shard snapshot otherwise.
  virtual SimStats collect_stats() = 0;

  virtual std::size_t num_shards() const = 0;
  virtual std::size_t capacity() const = 0;
  /// Shard `s`'s capacity share (see shard_capacity_share).
  virtual std::size_t shard_capacity(std::size_t s) const = 0;
  /// Shard `s`'s current occupancy (takes the shard lock).
  virtual std::size_t shard_occupancy(std::size_t s) = 0;
  virtual std::string policy_name() const = 0;

  /// Attach (or detach with nullptr) a gcmon per-shard counter table sized
  /// to num_shards(). The access path publishes hit/miss/sideload/lock
  /// deltas into it via GC_MON_* macros — relaxed atomics only, compiled to
  /// nothing under GCACHING_OBS=OFF, so attach is a no-op in fast builds.
  /// The atlas must outlive all traffic issued while it is attached.
  virtual void attach_atlas(obs::ShardAtlas* atlas) = 0;
};

/// The ConcurrentPolicy adapter: `Policy` is any concrete policy class
/// usable with `detail::fast_step` whose state is derivable from (map,
/// per-shard cache) alone — no offline prepare(), no cross-shard reads.
/// Policies outside that envelope cannot shard; `make_concurrent_cache`
/// (gcached.hpp) documents the escape hatch.
template <typename Policy, typename MakePolicy>
class ShardedCache final : public ConcurrentCache {
 public:
  /// `make_policy()` returns a fresh Policy by value (guaranteed elision),
  /// called once per shard — mirroring simulate_column's per-lane factory.
  ShardedCache(std::shared_ptr<const BlockMap> map, const GcachedConfig& cfg,
               MakePolicy make_policy, std::string policy_name)
      : map_(std::move(map)), cfg_(cfg), name_(std::move(policy_name)) {
    GC_REQUIRE(map_ != nullptr, "gcached needs a block map");
    GC_REQUIRE(cfg_.num_shards >= 1, "gcached needs at least one shard");
    GC_REQUIRE(cfg_.capacity >= cfg_.num_shards,
               "gcached needs at least one item of capacity per shard");
    GC_REQUIRE(cfg_.mshr_entries >= 1,
               "gcached needs at least one MSHR entry per shard");
    shards_.reserve(cfg_.num_shards);
    for (std::size_t s = 0; s < cfg_.num_shards; ++s) {
      shards_.push_back(std::make_unique<Shard>(
          *map_, shard_capacity_share(cfg_.capacity, cfg_.num_shards, s),
          cfg_.mshr_entries, make_policy));
      Shard& shard = *shards_.back();
      // The exact setup sequence of simulate_fast, minus prepare() (online
      // policies only — enforced by the factory's escape hatch).
      shard.policy.attach(*map_, shard.cache);
      shard.cache.set_load_time_tracking(false);
    }
  }

  GC_HOT_REGION_BEGIN(gcached_access)
  /// The one access path. Per iteration, one exclusive hold classifies the
  /// access. A hit, or any miss when fills are free, is the exact
  /// fast_step transition inside that hold. A miss with a fill either
  /// coalesces onto the block's in-flight fill (parks on its FillGate, then
  /// re-classifies) or owns a fill: it claims an MSHR register — or, with
  /// every register busy, takes an unqueued fill — sleeps the fill
  /// UNLOCKED and re-acquires to commit. No thread ever sleeps while
  /// holding the shard. docs/CONCURRENCY.md documents the protocol;
  /// tests/test_gcached.cpp pins coalescing, conservation, and the
  /// free-delayed-hit taxonomy.
  void access(ClientContext& ctx, ItemId item, BlockId block) override {
    const std::size_t si = shard_of_block(block, shards_.size());
    Shard& shard = *shards_[si];
    GC_MON_ATLAS(mon, atlas_.load(std::memory_order_acquire));
    std::uint64_t waited_ns = 0;
    for (;;) {
      FillGate* wait_gate = nullptr;
      std::uint64_t wait_epoch = 0;
      Mshr* fill_entry = nullptr;
      {
        ShardHold hold(shard, ctx, mon, si);
        if (cfg_.fill_latency_ns == 0) {
          // A free fill is never in flight, so a miss claims and commits
          // it right here: the exact fast_step transition, hit or miss.
          step(shard, mon, si, item, block);
          return;
        }
        if (shard.cache.contains(item)) {
          if (waited_ns == 0) {
            // Plain hit: the exact fast_step hit arm (its own contains
            // probe re-confirms under the same hold).
            step(shard, mon, si, item, block);
            return;
          }
          // Resident after a wait: a DELAYED hit — the access was served by
          // a fill already in flight when it arrived. Not a hit (the item
          // was absent at access time), not a miss (no fill was issued).
          // The hit taxonomy doubles as the free-delayed-hit classifier:
          // kSpatial means the waiter's item was only ever *sideloaded* by
          // the pending fill — spatial locality paid for the wait.
          commit_delayed_hit(shard, mon, si, item, waited_ns);
          return;
        }
        // Miss. Coalesce onto an in-flight fill of this block if there is
        // one; otherwise claim an MSHR register; when every register is
        // busy, fall back to an unqueued fill (fill_entry stays null —
        // never wait for a register while holding the shard).
        if (Mshr* inflight = shard.mshr.find(block)) {
          ++inflight->coalesced;
          wait_gate = &inflight->gate;
          wait_epoch = wait_gate->epoch();
          if (GC_MON_ATTACHED(mon)) {
            GC_MON_SHARD_ADD(mon, si, coalesced, 1);
          }
        } else if ((fill_entry = shard.mshr.claim(block)) != nullptr) {
          if (GC_MON_ATTACHED(mon)) {
            GC_MON_SHARD_SET(mon, si, mshr_inflight, shard.mshr.inflight());
          }
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
      commit_fill(ctx, shard, mon, si, item, block, fill_entry);
      return;
    }
  }
  GC_HOT_REGION_END(gcached_access)

  SimStats collect_stats() override {
    // Cold path: plain lock() via a throwaway context per shard; the
    // derivable counters are filled from a COPY of the partial stats, the
    // same trick as detail::fast_live_snapshot.
    SimStats total;
    for (const std::unique_ptr<Shard>& shard : shards_) {
      ClientContext ctx;
      ShardGuard guard(shard->lock, ctx);
      SimStats snapshot = shard->partial;
      detail::fast_finalize<Policy>(shard->cache, snapshot, shard->accesses);
      total += snapshot;
    }
    return total;
  }

  std::size_t num_shards() const override { return shards_.size(); }
  std::size_t capacity() const override { return cfg_.capacity; }

  std::size_t shard_capacity(std::size_t s) const override {
    GC_REQUIRE(s < shards_.size(), "shard index out of range");
    return shards_[s]->cache.capacity();
  }

  std::size_t shard_occupancy(std::size_t s) override {
    GC_REQUIRE(s < shards_.size(), "shard index out of range");
    ClientContext ctx;
    ShardGuard guard(shards_[s]->lock, ctx);
    return shards_[s]->cache.occupancy();
  }

  std::string policy_name() const override { return name_; }

  void attach_atlas(obs::ShardAtlas* atlas) override {
    GC_REQUIRE(atlas == nullptr || atlas->size() == shards_.size(),
               "atlas size must equal the shard count");
    atlas_.store(atlas, std::memory_order_release);
  }

 private:
  // One cache line per shard header keeps neighbouring shards' locks from
  // false-sharing under cross-shard traffic.
  struct alignas(64) Shard {
    ShardLock lock;
    CacheContents cache;
    Policy policy;
    MshrTable mshr;         ///< in-flight fills; mutated under `lock` only
    SimStats partial;       ///< non-derivable counters only (fast_step)
    std::uint64_t accesses = 0;
    bool writer_active = false;  ///< checking builds only; guarded by `lock`

    Shard(const BlockMap& map, std::size_t capacity, std::size_t mshrs,
          MakePolicy& make)
        : cache(map, capacity), policy(make()), mshr(mshrs) {}
  };

  GC_HOT_REGION_BEGIN(gcached_hold)
  /// One exclusive hold of a shard: takes the lock, checks the
  /// single-writer-per-shard invariant, and publishes what acquiring the
  /// lock cost this client (one acquisition, its failed try_locks) to an
  /// attached atlas — while still holding the shard, as the atlas's
  /// single-writer publish requires. The invariant check compiles out under
  /// GC_FAST_SIM and the publish under GCACHING_OBS=OFF; `Mon` is whatever
  /// GC_MON_ATLAS declared. The exclusive lock makes the writer flag
  /// race-free, so a firing check means a lock-discipline bug (an access
  /// path that skipped the ShardHold), not a data race.
  template <typename Mon>
  class ShardHold {
   public:
    ShardHold(Shard& shard, ClientContext& ctx, [[maybe_unused]] Mon mon,
              [[maybe_unused]] std::size_t si)
        : shard_(shard),
          rounds_before_(ctx.backoff_rounds),
          guard_(shard.lock, ctx) {
      GC_HOT_CHECK(!shard_.writer_active,
                   "single-writer-per-shard invariant violated");
      if constexpr (kHotChecksEnabled) shard_.writer_active = true;
      if (GC_MON_ATTACHED(mon)) {
        GC_MON_SHARD_ADD(mon, si, lock_acquisitions, 1);
        GC_MON_SHARD_ADD(mon, si, trylock_failures,
                         ctx.backoff_rounds - rounds_before_);
      }
    }
    ~ShardHold() {
      if constexpr (kHotChecksEnabled) shard_.writer_active = false;
    }
    ShardHold(const ShardHold&) = delete;
    ShardHold& operator=(const ShardHold&) = delete;

   private:
    Shard& shard_;
    [[maybe_unused]] const std::uint64_t rounds_before_;  ///< gcmon only
    ShardGuard guard_;
  };

  /// The fast_step transition of one access plus its gcmon publishes. Must
  /// run inside a ShardHold. fast_step maintains only the non-derivable
  /// counters (misses, spatial hits); hits are 1 - miss per access, and
  /// sideloads accumulate in CacheContents — the publishes delta those.
  template <typename Mon>
  void step(Shard& shard, [[maybe_unused]] Mon mon,
            [[maybe_unused]] std::size_t si, ItemId item, BlockId block) {
    [[maybe_unused]] const std::uint64_t sideloads_before =
        shard.cache.sideloads();
    [[maybe_unused]] const std::uint64_t misses_before = shard.partial.misses;
    detail::fast_step(shard.cache, shard.policy, shard.partial, item, block);
    ++shard.accesses;
    if (GC_MON_ATTACHED(mon)) {
      [[maybe_unused]] const std::uint64_t miss_delta =
          shard.partial.misses - misses_before;
      GC_MON_SHARD_ADD(mon, si, hits, 1 - miss_delta);
      GC_MON_SHARD_ADD(mon, si, misses, miss_delta);
      GC_MON_SHARD_ADD(mon, si, sideloads,
                       shard.cache.sideloads() - sideloads_before);
      GC_MON_SHARD_SET(mon, si, residency, shard.cache.occupancy());
    }
  }

  /// Commit of a fill this thread slept; `fill_entry` is its MSHR register,
  /// or null for an unqueued fill. Re-acquires the shard; the residency
  /// RE-CHECK is load-bearing: an unqueued (MSHR-overflow) fill of the same
  /// block may have committed our item during the unlocked window, and
  /// `begin_miss` on a resident item is a contract violation — the access
  /// then lands as a delayed hit that waited the full fill.
  template <typename Mon>
  void commit_fill(ClientContext& ctx, Shard& shard, Mon mon, std::size_t si,
                   ItemId item, BlockId block, Mshr* fill_entry) {
    ShardHold hold(shard, ctx, mon, si);
    if (!shard.cache.contains(item)) {
      // fast_step re-probes residency under this same hold and takes its
      // miss arm: begin_miss/on_miss/end_miss, the exact sequential
      // transition, now merely time-shifted to the fill's completion.
      step(shard, mon, si, item, block);
    } else {
      commit_delayed_hit(shard, mon, si, item, cfg_.fill_latency_ns);
    }
    if (fill_entry != nullptr) {
      // Release the register and wake every coalesced waiter. Both happen
      // under this same hold, so a recycled entry can never be observed
      // with a stale epoch (see FillGate's protocol comment).
      FillGate& gate = fill_entry->gate;
      shard.mshr.release(fill_entry);
      gate.advance();
      if (GC_MON_ATTACHED(mon)) {
        GC_MON_SHARD_SET(mon, si, mshr_inflight, shard.mshr.inflight());
      }
    }
  }

  /// The delayed-hit transition, shared by the waiter-wake and double-fill
  /// paths. Must run inside a ShardHold. Mirrors fast_step's hit arm for
  /// the cache/policy transition, but charges the dedicated delayed-hit
  /// counters instead of the hit taxonomy: delayed hits are excluded from
  /// hits (and thus from temporal/spatial) by `fast_finalize`'s
  /// `hits = accesses - misses - delayed_hits`.
  template <typename Mon>
  void commit_delayed_hit(Shard& shard, [[maybe_unused]] Mon mon,
                          [[maybe_unused]] std::size_t si, ItemId item,
                          std::uint64_t wait_ns) {
    HitKind kind = HitKind::kTemporal;
    if constexpr (detail::kRequestedOnly<Policy>) {
      // Requested-loads-only policies never sideload, so a resident waiter
      // item was the fill's own requested load — never a free delayed hit.
      shard.cache.record_requested_hit(item);
    } else {
      kind = shard.cache.record_hit(item);
    }
    shard.policy.on_hit(item);
    ++shard.partial.delayed_hits;
    if (kind == HitKind::kSpatial) ++shard.partial.free_delayed_hits;
    shard.partial.delayed_hit_wait_ns += wait_ns;
    ++shard.accesses;
    if (GC_MON_ATTACHED(mon)) {
      GC_MON_SHARD_ADD(mon, si, delayed_hits, 1);
      GC_MON_SHARD_SET(mon, si, residency, shard.cache.occupancy());
    }
  }
  GC_HOT_REGION_END(gcached_hold)

  std::shared_ptr<const BlockMap> map_;
  GcachedConfig cfg_;
  std::string name_;
  /// Attached gcmon counter table, or nullptr (idle: one acquire load per
  /// access in obs builds; the load itself compiles out under OBS=OFF).
  std::atomic<obs::ShardAtlas*> atlas_{nullptr};
  // Policies are neither copyable nor movable, so shards live behind
  // unique_ptr (the simulate_column Lane pattern).
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace gcaching::gcached
