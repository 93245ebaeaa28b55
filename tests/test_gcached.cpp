// Tests for the gcached concurrent sharded runtime (src/gcached/).
//
// The anchor is the differential test: with one shard and one client thread
// the runtime's per-access transition is literally simulate_fast's
// (detail::fast_step under a never-contended lock, strided partition
// degenerate to the original order), so SimStats must be bit-identical for
// every supported policy. Everything else layers on that anchor: the shard
// hash is pinned by golden values (a silent change would reshuffle every
// multi-shard result), the partitioning invariant "all items of a block map
// to one shard" is checked across BlockMap kinds and shard counts, and the
// multi-threaded runs assert the schedule-independent conservation laws.
// Past one shard, the oracle tests pin one client thread on S shards to the
// sum of simulate_fast over each shard's sub-trace, over full-block,
// ragged-tail and irregular explicit maps, so shard-local id numbering
// (ShardLocalIds) is checked against a model that never renumbers.
// The concurrent tests get their teeth from the tsan preset (ctest label
// `gcached` runs there at 1/2/hw threads).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include <time.h>
#if defined(__linux__)
#include <sys/prctl.h>
#endif

#include "gcached/gcached.hpp"
#include "gcached/loadgen.hpp"
#include "gcached/shard_lock.hpp"
#include "gcached/sharded_cache.hpp"
#include "policies/factory.hpp"
#include "traces/synthetic.hpp"
#include "util/contracts.hpp"

namespace gcaching::gcached {
namespace {

std::size_t hardware_threads() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

Workload small_zipf() {
  Workload w = traces::zipf_items(2048, 16, 60'000, 0.9, 7);
  w.trace.precompute_block_ids(*w.map);
  return w;
}

/// A zipf-scramble trace over an explicit partition of 2048 items into
/// blocks of 1 to 12 items, each block's members scattered across the id
/// space (item i sits at position (i * 997) mod 2048 of the block-major
/// order), so neither block sizes nor item order follow the block ids.
Workload irregular_explicit() {
  constexpr std::size_t kItems = 2048;
  const Workload source = traces::zipf_scramble(kItems, 16, 30'000, 0.9, 13);
  std::vector<ItemId> order(kItems);
  for (std::size_t i = 0; i < kItems; ++i)
    order[i] = static_cast<ItemId>(i * 997 % kItems);
  const std::size_t sizes[] = {1, 7, 12, 3, 9, 5, 12, 2};
  std::vector<std::vector<ItemId>> blocks;
  for (std::size_t next = 0, j = 0; next < kItems; ++j) {
    const std::size_t n = std::min(sizes[j % std::size(sizes)], kItems - next);
    blocks.emplace_back(order.data() + next, order.data() + next + n);
    next += n;
  }
  Workload w;
  w.map = std::make_shared<ExplicitBlockMap>(std::move(blocks));
  w.trace = Trace(source.trace.accesses());
  w.trace.precompute_block_ids(*w.map);
  return w;
}

/// The block maps every differential and oracle case runs over: full
/// uniform blocks, a uniform map whose last block is partial (2050 % 16 ==
/// 2), and an irregular explicit partition.
std::vector<Workload> map_cases() {
  std::vector<Workload> cases;
  cases.push_back(small_zipf());
  Workload ragged = traces::zipf_scramble(2050, 16, 30'000, 0.9, 11);
  ragged.trace.precompute_block_ids(*ragged.map);
  cases.push_back(std::move(ragged));
  cases.push_back(irregular_explicit());
  return cases;
}

/// The multi-shard model: shard s serves exactly the accesses whose block
/// it owns, in trace order, with its capacity share and nothing else. With
/// one client thread and free fills the runtime must therefore equal the
/// sum over shards of simulate_fast on each shard's sub-trace — run over
/// the GLOBAL map, so the model knows nothing of how shards number ids.
SimStats sharded_oracle(const std::string& spec, const Workload& w,
                        std::size_t shards, std::size_t capacity) {
  const std::vector<ItemId>& accesses = w.trace.accesses();
  const std::span<const BlockId> ids = w.trace.block_ids();
  SimStats total;
  for (std::size_t s = 0; s < shards; ++s) {
    Trace sub;
    for (std::size_t i = 0; i < accesses.size(); ++i)
      if (shard_of_block(ids[i], shards) == s) sub.push(accesses[i]);
    total += simulate_fast_spec(spec, *w.map, sub,
                                shard_capacity_share(capacity, shards, s));
  }
  return total;
}

LoadResult replay(ConcurrentCache& cache, const Workload& w,
                  std::size_t threads, std::uint64_t ops = 0) {
  LoadSpec spec;
  spec.threads = threads;
  spec.total_ops = ops;
  return run_load(cache, w.trace, w.trace.block_ids(), spec);
}

// ---- Shard partitioning invariants ------------------------------------------

const std::vector<std::size_t> kShardCounts = {1, 2, 3, 7, 8, 16, 64};

TEST(GcachedSharding, AllItemsOfABlockShareAShardUniformMap) {
  // Uniform pow2 block size, with a ragged tail block (1000 % 16 != 0).
  const auto map = make_uniform_blocks(1000, 16);
  for (const std::size_t shards : kShardCounts) {
    for (ItemId item = 0; item < map->num_items(); ++item) {
      ASSERT_EQ(shard_of_item(*map, item, shards),
                shard_of_block(map->block_of(item), shards))
          << "item " << item << " at " << shards << " shards";
    }
  }
}

TEST(GcachedSharding, AllItemsOfABlockShareAShardExplicitMap) {
  // Explicit partition with wildly uneven blocks.
  const ExplicitBlockMap map({{0, 5, 9},
                              {1},
                              {2, 3, 4, 6, 7, 8, 10, 11, 12, 13},
                              {14, 15},
                              {16, 17, 18, 19, 20}});
  for (const std::size_t shards : kShardCounts) {
    for (BlockId block = 0; block < map.num_blocks(); ++block) {
      const std::size_t expected = shard_of_block(block, shards);
      for (const ItemId item : map.items_of(block))
        ASSERT_EQ(shard_of_item(map, item, shards), expected)
            << "block " << block << " at " << shards << " shards";
    }
  }
}

TEST(GcachedSharding, GoldenShardAssignments) {
  // shard_of_block for blocks 0..11, pinned so the hash (seed, mix, Lemire
  // reduction) can never change silently — every committed multi-shard
  // benchmark and test depends on this assignment.
  struct Golden {
    std::size_t shards;
    std::vector<std::size_t> shard_of_first_blocks;
  };
  const std::vector<Golden> golden = {
      {1, {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
      {2, {0, 1, 0, 0, 1, 1, 0, 0, 1, 0, 0, 0}},
      {3, {0, 2, 0, 0, 2, 2, 0, 0, 2, 1, 0, 0}},
      {7, {1, 5, 0, 2, 6, 5, 0, 2, 6, 3, 0, 0}},
      {8, {1, 6, 0, 2, 6, 6, 0, 2, 7, 3, 0, 0}},
      {16, {2, 13, 1, 4, 13, 12, 0, 4, 15, 6, 0, 1}},
      {64, {10, 52, 6, 19, 55, 48, 2, 19, 60, 27, 0, 4}},
  };
  for (const Golden& g : golden) {
    for (BlockId b = 0; b < g.shard_of_first_blocks.size(); ++b)
      EXPECT_EQ(shard_of_block(b, g.shards), g.shard_of_first_blocks[b])
          << "block " << b << " at " << g.shards << " shards";
  }
}

TEST(GcachedSharding, AssignmentIsRoughlyBalanced) {
  // SplitMix64 finalizer + Lemire reduction over 4096 consecutive block ids:
  // each of 8 shards should land near 512 blocks. Wide tolerance — this
  // guards against a catastrophic hash regression (all-to-one), not drift.
  std::vector<std::size_t> counts(8, 0);
  for (BlockId b = 0; b < 4096; ++b) ++counts[shard_of_block(b, 8)];
  for (std::size_t s = 0; s < counts.size(); ++s)
    EXPECT_NEAR(static_cast<double>(counts[s]), 512.0, 160.0)
        << "shard " << s;
}

TEST(GcachedSharding, CapacityShareSumsExactly) {
  EXPECT_EQ(shard_capacity_share(10, 4, 0), 3u);
  EXPECT_EQ(shard_capacity_share(10, 4, 1), 3u);
  EXPECT_EQ(shard_capacity_share(10, 4, 2), 2u);
  EXPECT_EQ(shard_capacity_share(10, 4, 3), 2u);
  for (const std::size_t capacity : {7u, 64u, 1000u, 4097u}) {
    for (const std::size_t shards : kShardCounts) {
      if (shards > capacity) continue;
      std::size_t sum = 0;
      for (std::size_t s = 0; s < shards; ++s)
        sum += shard_capacity_share(capacity, shards, s);
      EXPECT_EQ(sum, capacity) << capacity << " over " << shards;
    }
  }
}

// ---- Differential anchor ----------------------------------------------------

TEST(GcachedDifferential, OneShardOneThreadMatchesSimulateFastExactly) {
  // Fill 0 runs through the same access() as real fills: one hold per
  // access, claim and commit of every miss inside it.
  // A spec with parameters reaches the shards as the factory parses it.
  std::vector<std::string> specs = supported_concurrent_specs();
  specs.push_back("item-slru:p=0.25");
  for (const Workload& w : map_cases()) {
    for (const std::string& spec : specs) {
      for (const std::size_t capacity : {std::size_t{64}, std::size_t{512}}) {
        SCOPED_TRACE(spec + " @ " + std::to_string(capacity) + " over " +
                     std::to_string(w.map->num_items()) + " items");
        GcachedConfig cfg;
        cfg.num_shards = 1;
        cfg.capacity = capacity;
        const auto cache = make_concurrent_cache(spec, w.map, cfg);
        const LoadResult res = replay(*cache, w, 1);
        const SimStats expected = simulate_fast_spec(spec, w, capacity);
        EXPECT_EQ(res.stats, expected);
        EXPECT_EQ(res.lock_contended, 0u);
        EXPECT_EQ(res.backoff_rounds, 0u);
      }
    }
  }
}

TEST(GcachedOracle, ManyShardsOneThreadMatchesPerShardSimulateFast) {
  // The multi-shard anchor: bit-identical to sharded_oracle, not merely
  // conserving. Capacity 128 keeps every share of 8 shards >= B = 16, the
  // smallest share the block policies accept.
  for (const Workload& w : map_cases()) {
    for (const std::size_t shards :
         {std::size_t{2}, std::size_t{3}, std::size_t{8}}) {
      for (const std::string& spec : supported_concurrent_specs()) {
        for (const std::size_t capacity :
             {std::size_t{128}, std::size_t{512}}) {
          SCOPED_TRACE(spec + " @ " + std::to_string(capacity) + " on " +
                       std::to_string(shards) + " shards over " +
                       std::to_string(w.map->num_items()) + " items");
          GcachedConfig cfg;
          cfg.num_shards = shards;
          cfg.capacity = capacity;
          const auto cache = make_concurrent_cache(spec, w.map, cfg);
          const LoadResult res = replay(*cache, w, 1);
          EXPECT_EQ(res.stats, sharded_oracle(spec, w, shards, capacity));
        }
      }
    }
  }
}

TEST(GcachedOracle, ShardsThatOwnNoBlockConstructAndServe) {
  // Three blocks on eight shards: five shards own no block, so their
  // universe is empty. They must construct, stay untouched, and leave the
  // three owning shards bit-identical to the model.
  std::vector<Workload> tiny(2);
  tiny[0] = traces::zipf_scramble(10, 4, 2'000, 0.9, 3);  // blocks of 4, 4, 2
  tiny[1].map = std::make_shared<ExplicitBlockMap>(
      std::vector<std::vector<ItemId>>{{0, 5, 9}, {1}, {2, 3, 4, 6, 7, 8}});
  tiny[1].trace = Trace(tiny[0].trace.accesses());
  constexpr std::size_t kShards = 8;
  for (Workload& w : tiny) {
    ASSERT_EQ(w.map->num_blocks(), 3u);
    std::vector<bool> owns(kShards, false);
    for (BlockId b = 0; b < 3; ++b) owns[shard_of_block(b, kShards)] = true;
    ASSERT_EQ(std::count(owns.begin(), owns.end(), true), 3);
    w.trace.precompute_block_ids(*w.map);
    for (const std::string& spec : supported_concurrent_specs()) {
      SCOPED_TRACE(spec + " over " + std::to_string(w.map->max_block_size()) +
                   "-item blocks");
      GcachedConfig cfg;
      cfg.num_shards = kShards;
      cfg.capacity = kShards * w.map->max_block_size();
      const auto cache = make_concurrent_cache(spec, w.map, cfg);
      const LoadResult res = replay(*cache, w, 1);
      EXPECT_EQ(res.stats, sharded_oracle(spec, w, kShards, cfg.capacity));
      const std::vector<obs::ShardCounters> values = cache->shard_counters();
      for (std::size_t s = 0; s < kShards; ++s) {
        if (owns[s]) continue;
        EXPECT_EQ(values[s].stats.accesses, 0u) << "shard " << s;
        EXPECT_EQ(values[s].residency, 0u) << "shard " << s;
      }
    }
  }
}

// ---- Deferred hit recency --------------------------------------------------

TEST(GcachedDeferredHits, NoDeferredHitIsDroppedAcrossRuns) {
  // Two run_loads on one cache with one client each equal the model over
  // the trace replayed twice. The second run's evictions depend on the
  // recency of the first run's last hits, so a client that returned with
  // hits still pending (no drain) would diverge from the model.
  const Workload w = small_zipf();
  Workload twice;
  twice.map = w.map;
  std::vector<ItemId> accesses = w.trace.accesses();
  accesses.insert(accesses.end(), w.trace.accesses().begin(),
                  w.trace.accesses().end());
  twice.trace = Trace(std::move(accesses));
  twice.trace.precompute_block_ids(*twice.map);
  for (const std::size_t shards : {std::size_t{1}, std::size_t{8}}) {
    for (const std::string& spec : supported_concurrent_specs()) {
      SCOPED_TRACE(spec + " on " + std::to_string(shards) + " shards");
      GcachedConfig cfg;
      cfg.num_shards = shards;
      cfg.capacity = 256;
      const auto cache = make_concurrent_cache(spec, w.map, cfg);
      replay(*cache, w, 1);
      replay(*cache, w, 1);
      EXPECT_EQ(cache->collect_stats(),
                sharded_oracle(spec, twice, shards, cfg.capacity));
    }
  }
}

TEST(GcachedDeferredHits, AHitEvictedBeforeItsUpdateIsSkipped) {
  // Two clients on one thread, one shard of item-lru holding 2 items. A's
  // hit on 0 is deferred, so B's miss on 2 evicts 0 (the policy still sees
  // 0 as least recent). A's next miss applies its buffer, skips the
  // evicted 0 and evicts 1. Applying on_hit to a non-resident item would
  // be a contract violation in checking builds.
  const auto map = std::make_shared<UniformBlockMap>(4, 1);
  GcachedConfig cfg;
  cfg.capacity = 2;
  const auto cache = make_concurrent_cache("item-lru", map, cfg);
  ClientContext a;
  ClientContext b;
  EXPECT_NO_THROW({
    cache->access(a, 0, 0);  // miss: {0}
    cache->access(a, 0, 0);  // hit, deferred in a
    cache->access(b, 1, 1);  // miss: {0, 1}
    cache->access(b, 2, 2);  // miss, evicts 0: {1, 2}
    cache->access(a, 3, 3);  // miss, skips 0, evicts 1: {2, 3}
    cache->access(b, 2, 2);  // hit
    cache->access(b, 3, 3);  // hit
    cache->drain(a);
    cache->drain(b);
  });
  SimStats expected;
  expected.accesses = 7;
  expected.hits = 3;
  expected.temporal_hits = 3;
  expected.misses = 4;
  expected.items_loaded = 4;
  expected.evictions = 2;
  const SimStats stats = cache->collect_stats();
  EXPECT_EQ(stats, expected);
  EXPECT_EQ(stats.hits + stats.misses + stats.delayed_hits, stats.accesses);
  EXPECT_EQ(cache->shard_counters()[0].residency, 2u);
}

TEST(GcachedDeferredHits, AContextServesExactlyOneCache) {
  // A context's buffers hold one cache's shard-local ids, so using it on
  // a second cache must fail loudly rather than replay foreign ids.
  const Workload w = small_zipf();
  GcachedConfig cfg;
  cfg.num_shards = 2;
  cfg.capacity = 256;
  const auto first = make_concurrent_cache("item-lru", w.map, cfg);
  const auto second = make_concurrent_cache("item-lru", w.map, cfg);
  const BlockId block = w.map->block_of(0);
  ClientContext ctx;
  second->drain(ctx);  // a context that never accessed drains nothing
  first->access(ctx, 0, block);
  EXPECT_THROW(second->drain(ctx), ContractViolation);
  if (!kHotChecksEnabled) GTEST_SKIP() << "hot checks compiled out";
  EXPECT_THROW(second->access(ctx, 0, block), ContractViolation);
  EXPECT_EQ(second->collect_stats().accesses, 0u);
  first->access(ctx, 0, block);  // still bound to the first cache
  EXPECT_EQ(first->collect_stats().hits, 1u);
}

// ---- Lock-free temporal hits --------------------------------------------

// ---- Line layout ---------------------------------------------------------

// The counters every hold that classifies an access writes are on the
// shard's first line with the lock: under concurrent clients each line a
// hold writes migrates to the holder's core.
TEST(GcachedLayout, HoldCountersShareTheLockLine) {
  static_assert(alignof(HoldLine) == 64 && sizeof(HoldLine) == 64);
  static_assert(std::is_standard_layout_v<HoldLine>);
  static_assert(offsetof(HoldLine, lock) == 0);
  static_assert(offsetof(HoldLine, counts) >= sizeof(ShardLock));
  static_assert(offsetof(HoldLine, counts) + sizeof(HoldCounts) <= 64);
  // The counters a hold writes when it classifies an access without a
  // fill, and nothing else.
  static_assert(offsetof(HoldCounts, accesses) < sizeof(HoldCounts) &&
                offsetof(HoldCounts, misses) < sizeof(HoldCounts) &&
                offsetof(HoldCounts, spatial_hits) < sizeof(HoldCounts));
  static_assert(sizeof(HoldCounts) == 3 * sizeof(std::uint64_t));
  SUCCEED();
}

TEST(GcachedLockFreeHits, ExactHoldCountOnAHandComputedTrace) {
  // item-lru, one-item blocks, one shard of 2 items, one client. Every hit
  // below is temporal, so none takes a hold; each miss takes one, and so
  // does the 32nd buffered hit, which applies the client's full buffer.
  //   0 miss | 0 hit | 1 miss (applies [0]) | 1 hit | 0 hit
  //   2 miss (applies [1, 0], evicts 1) | 1 miss (evicts 0) | 2 hit x32
  const auto map = std::make_shared<UniformBlockMap>(4, 1);
  std::vector<ItemId> accesses = {0, 0, 1, 1, 0, 2, 1};
  accesses.insert(accesses.end(), kDeferredHits, 2);
  Workload w;
  w.map = map;
  w.trace = Trace(std::move(accesses));
  w.trace.precompute_block_ids(*w.map);
  GcachedConfig cfg;
  cfg.capacity = 2;
  const auto cache = make_concurrent_cache("item-lru", map, cfg);
  const LoadResult res = replay(*cache, w, 1);
  EXPECT_EQ(res.ops, 39u);
  EXPECT_EQ(res.lockfree_hits, 35u);
  EXPECT_EQ(res.lock_acquisitions, 5u);
  SimStats expected;
  expected.accesses = 39;
  expected.hits = 35;
  expected.temporal_hits = 35;
  expected.misses = 4;
  expected.items_loaded = 4;
  expected.evictions = 2;
  EXPECT_EQ(res.stats, expected);
  EXPECT_EQ(res.stats, simulate_fast_spec("item-lru", w, cfg.capacity));
  // The cache's own count of the same holds: one client, never contended.
  const obs::ShardCounters v = cache->shard_counters()[0];
  EXPECT_EQ(v.locks.holds, 5u);
  EXPECT_EQ(v.locks.trylock_failures, 0u);
}

TEST(GcachedLockFreeHits, AnUntouchedSideloadIsALockedSpatialHit) {
  // block-lru loads item 0's whole block {0, 1}. The first hit on the
  // sideloaded 1 writes its touched flag, so it takes the hold as a
  // spatial hit; the next hit on 1 is temporal and takes none.
  const auto map = std::make_shared<UniformBlockMap>(4, 2);
  GcachedConfig cfg;
  cfg.capacity = 4;
  const auto cache = make_concurrent_cache("block-lru", map, cfg);
  ClientContext ctx;
  cache->access(ctx, 0, 0);  // miss, sideloads 1
  cache->access(ctx, 1, 0);  // spatial hit
  EXPECT_EQ(ctx.totals().lockfree_hits, 0u);
  EXPECT_EQ(ctx.totals().holds, 2u);
  EXPECT_EQ(cache->collect_stats().spatial_hits, 1u);
  cache->access(ctx, 1, 0);  // temporal hit
  EXPECT_EQ(ctx.totals().lockfree_hits, 1u);
  EXPECT_EQ(ctx.totals().holds, 2u);
  const SimStats stats = cache->collect_stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.spatial_hits, 1u);
  EXPECT_EQ(stats.temporal_hits, 1u);
}

TEST(GcachedLockFreeHits, ASpatialHitUpdatesRecencyInItsOwnHold) {
  // block-lru, blocks of 2, one shard of 4 items, two clients on one
  // thread. a's hit on the sideloaded 1 is spatial, so it takes the hold;
  // its recency must reach the policy in that hold, as in the sequential
  // engine: b's miss on 4 then evicts block {2, 3}, not {0, 1}, and b's
  // access to 0 hits. Left pending in a's buffer, the update would arrive
  // too late and 0 would miss.
  const auto map = std::make_shared<UniformBlockMap>(6, 2);
  GcachedConfig cfg;
  cfg.capacity = 4;
  const auto cache = make_concurrent_cache("block-lru", map, cfg);
  ClientContext a;
  ClientContext b;
  cache->access(a, 0, 0);  // miss, sideloads 1: {0, 1}
  cache->access(a, 2, 1);  // miss, sideloads 3: {0, 1, 2, 3}
  cache->access(a, 1, 0);  // spatial hit: block {0, 1} most recent
  cache->access(b, 4, 2);  // miss, evicts {2, 3}
  cache->access(b, 0, 0);  // hit
  Workload w;
  w.map = map;
  w.trace = Trace(std::vector<ItemId>{0, 2, 1, 4, 0});
  w.trace.precompute_block_ids(*w.map);
  EXPECT_EQ(cache->collect_stats(),
            simulate_fast_spec("block-lru", w, cfg.capacity));
}

TEST(GcachedLockFreeHits, CountsOutliveTheirContext) {
  // The client's lock-free hit counts belong to the cache, so a context
  // destroyed undrained leaves the stats exact.
  const Workload w = small_zipf();
  const std::vector<ItemId>& accesses = w.trace.accesses();
  const std::span<const BlockId> ids = w.trace.block_ids();
  for (const std::size_t shards : {std::size_t{1}, std::size_t{8}}) {
    for (const std::string spec : {"item-lru", "block-lru"}) {
      SCOPED_TRACE(spec + " on " + std::to_string(shards) + " shards");
      GcachedConfig cfg;
      cfg.num_shards = shards;
      cfg.capacity = 256;
      const auto cache = make_concurrent_cache(spec, w.map, cfg);
      {
        ClientContext ctx;
        for (std::size_t i = 0; i < accesses.size(); ++i)
          cache->access(ctx, accesses[i], ids[i]);
        ASSERT_GT(ctx.totals().lockfree_hits, 0u);
      }
      EXPECT_EQ(cache->collect_stats(),
                sharded_oracle(spec, w, shards, cfg.capacity));
    }
  }
}

TEST(GcachedLockFreeHits, HitsRacingEvictionsConserve) {
  // Four clients on one shard of 8 items over a 64-item hot set: most
  // accesses are lock-free temporal hits while other clients' misses evict
  // the same items. Under tsan this is the race the relaxed flag loads and
  // stores exist for.
  const Workload w = [] {
    Workload hot = traces::zipf_items(64, 4, 40'000, 0.6, 21);
    hot.trace.precompute_block_ids(*hot.map);
    return hot;
  }();
  for (const std::string spec : {"item-lru", "block-lru"}) {
    SCOPED_TRACE(spec);
    GcachedConfig cfg;
    cfg.capacity = 8;
    const auto cache = make_concurrent_cache(spec, w.map, cfg);
    const LoadResult res = replay(*cache, w, 4);
    EXPECT_EQ(res.stats.accesses, res.ops);
    EXPECT_EQ(res.stats.hits + res.stats.misses + res.stats.delayed_hits,
              res.stats.accesses);
    EXPECT_EQ(res.stats.temporal_hits + res.stats.spatial_hits,
              res.stats.hits);
    EXPECT_GT(res.lockfree_hits, 0u);
    EXPECT_GE(res.lock_acquisitions + res.lockfree_hits, res.ops);
    EXPECT_LE(res.lockfree_hits, res.stats.temporal_hits);
    EXPECT_LE(cache->shard_counters()[0].residency, cfg.capacity);
    const SimStats stats = cache->collect_stats();
    EXPECT_EQ(stats, res.stats);
    obs::ShardCounters sum;
    for (const obs::ShardCounters& v : cache->shard_counters()) sum += v;
    EXPECT_EQ(sum.stats, stats);
  }
}

// ---- Shard-local ids ----------------------------------------------------------

TEST(GcachedShardLocalIds, DenseAndOrderPreservingWithinEveryShard) {
  // Walking the global ids in ascending order, each shard's local ids must
  // come out as 0, 1, 2, ...: dense, and in the global order. Every local
  // item must sit in its block's local id in the shard's own map.
  for (const Workload& w : map_cases()) {
    const BlockMap& map = *w.map;
    for (const std::size_t shards :
         {std::size_t{1}, std::size_t{3}, std::size_t{8}}) {
      SCOPED_TRACE(std::to_string(shards) + " shards over " +
                   std::to_string(map.num_items()) + " items");
      const ShardLocalIds ids(map, shards);
      std::vector<BlockId> blocks(shards, 0);
      for (BlockId b = 0; b < map.num_blocks(); ++b)
        ASSERT_EQ(ids.local_block(b), blocks[shard_of_block(b, shards)]++);
      std::vector<ItemId> items(shards, 0);
      for (ItemId item = 0; item < map.num_items(); ++item) {
        const BlockId b = map.block_of(item);
        const std::size_t s = shard_of_block(b, shards);
        const BlockId local = ids.local_block(b);
        const ItemId local_item = ids.local_item(item, b, local);
        ASSERT_EQ(local_item, items[s]++) << "item " << item;
        ASSERT_EQ(ids.shard_map(s).block_of(local_item), local)
            << "item " << item;
      }
      for (std::size_t s = 0; s < shards; ++s) {
        EXPECT_EQ(ids.shard_map(s).num_items(), items[s]) << "shard " << s;
        EXPECT_EQ(ids.shard_map(s).num_blocks(), blocks[s]) << "shard " << s;
      }
    }
  }
}

TEST(GcachedShardLocalIds, AnItemOutsideTheSuppliedBlockIsRejected) {
  // Checking builds verify on every access, hits included, that the item
  // lies in the block the caller supplied. Item 0 is resident after the
  // first access, so the bad access would otherwise be a plain hit.
  if (!kHotChecksEnabled) GTEST_SKIP() << "hot checks compiled out";
  const Workload w = small_zipf();
  const BlockId block = w.map->block_of(0);
  for (const std::size_t shards : {std::size_t{1}, std::size_t{8}}) {
    SCOPED_TRACE(std::to_string(shards) + " shards");
    GcachedConfig cfg;
    cfg.num_shards = shards;
    cfg.capacity = 512;
    const auto cache = make_concurrent_cache("item-lru", w.map, cfg);
    ClientContext ctx;
    cache->access(ctx, 0, block);
    EXPECT_THROW(cache->access(ctx, 0, block + 1), ContractViolation);
    EXPECT_EQ(cache->collect_stats().accesses, 1u);
  }
}

// ---- Factory / escape hatch -------------------------------------------------

TEST(GcachedFactory, SupportedSpecsConstructAndReport) {
  const Workload w = small_zipf();
  const auto specs = supported_concurrent_specs();
  EXPECT_NE(std::find(specs.begin(), specs.end(), "item-lru"), specs.end());
  EXPECT_NE(std::find(specs.begin(), specs.end(), "block-lru"), specs.end());
  // item-clock and item-slru are shard-local (requested-loads-only, state a
  // function of own-shard residency) and must stay in the envelope — which
  // also keeps them enumerated by the differential anchor above.
  EXPECT_NE(std::find(specs.begin(), specs.end(), "item-clock"), specs.end());
  EXPECT_NE(std::find(specs.begin(), specs.end(), "item-slru"), specs.end());
  for (const std::string& spec : specs) {
    GcachedConfig cfg;
    cfg.num_shards = 4;
    cfg.capacity = 256;
    const auto cache = make_concurrent_cache(spec, w.map, cfg);
    EXPECT_EQ(cache->policy_name(), spec);
    EXPECT_EQ(cache->num_shards(), 4u);
    EXPECT_EQ(cache->capacity(), 256u);
    std::size_t sum = 0;
    for (std::size_t s = 0; s < cache->num_shards(); ++s)
      sum += cache->shard_capacity(s);
    EXPECT_EQ(sum, 256u);
  }
}

TEST(GcachedFactory, UnshardablePoliciesAreRejectedWithTheEscapeHatch) {
  const Workload w = small_zipf();
  GcachedConfig cfg;
  cfg.num_shards = 2;
  cfg.capacity = 256;
  // Offline, capacity-coupled, and globally-stateful policies cannot shard;
  // the factory must refuse with the documented message, not mis-simulate.
  for (const std::string spec : {"belady-item", "iblp", "item-arc"}) {
    SCOPED_TRACE(spec);
    EXPECT_THROW(make_concurrent_cache(spec, w.map, cfg), ContractViolation);
  }
}

TEST(GcachedFactory, UnshardableRejectionNamesThePolicyInTheMessage) {
  // `gcsim gcached --policy belady-item` surfaces exactly this message, so
  // the user sees WHICH spec was refused and why, not a bare failure.
  const Workload w = small_zipf();
  GcachedConfig cfg;
  cfg.num_shards = 2;
  cfg.capacity = 256;
  try {
    make_concurrent_cache("belady-item", w.map, cfg);
    FAIL() << "belady-item must not construct under gcached";
  } catch (const ContractViolation& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("belady-item"), std::string::npos) << msg;
    EXPECT_NE(msg.find("cannot run under gcached"), std::string::npos) << msg;
    EXPECT_NE(msg.find("supported_concurrent_specs"), std::string::npos)
        << msg;
  }
}

// ---- CLI argument validation (gcsim gcached) --------------------------------

TEST(GcachedCli, ValidRequestsPassValidation) {
  EXPECT_EQ(validate_gcached_request(1, 1), "");
  EXPECT_EQ(validate_gcached_request(64, 128), "");
}

TEST(GcachedCli, NonPositiveShardsAreRejectedNamingTheFlag) {
  for (const long long bad : {0LL, -1LL, -64LL}) {
    SCOPED_TRACE(bad);
    const std::string msg = validate_gcached_request(bad, 1);
    EXPECT_NE(msg.find("--shards"), std::string::npos) << msg;
    EXPECT_NE(msg.find(std::to_string(bad)), std::string::npos) << msg;
  }
}

TEST(GcachedCli, NonPositiveThreadsAreRejectedNamingTheFlag) {
  for (const long long bad : {0LL, -1LL, -8LL}) {
    SCOPED_TRACE(bad);
    const std::string msg = validate_gcached_request(1, bad);
    EXPECT_NE(msg.find("--threads"), std::string::npos) << msg;
    EXPECT_NE(msg.find(std::to_string(bad)), std::string::npos) << msg;
  }
}

TEST(GcachedCli, ShardsAreValidatedBeforeThreads) {
  // Both invalid: the diagnostic names --shards (deterministic order, so
  // scripts can rely on the first error reported).
  const std::string msg = validate_gcached_request(0, 0);
  EXPECT_NE(msg.find("--shards"), std::string::npos) << msg;
  EXPECT_EQ(msg.find("--threads"), std::string::npos) << msg;
}

TEST(GcachedCli, FillMicrosecondsConvertOnlyWhenTheyFit) {
  EXPECT_EQ(fill_us_to_ns(0.0), 0u);
  EXPECT_EQ(fill_us_to_ns(2.5), 2'500u);
  EXPECT_EQ(fill_us_to_ns(20.0), 20'000u);
  EXPECT_EQ(fill_us_to_ns(9e15), 9'000'000'000'000'000'000u);  // 285 years
  // Past 2^63 ns, negative, or not finite: a cast would be undefined.
  for (const double bad : {2e16, 1e30, -1.0, -1e-3,
                           std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    SCOPED_TRACE(bad);
    EXPECT_EQ(fill_us_to_ns(bad), std::nullopt);
  }
}

// ---- Concurrent runs (tsan teeth) -------------------------------------------

TEST(GcachedConcurrent, ConservationHoldsOnEverySchedule) {
  const Workload w = small_zipf();
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, hardware_threads()}) {
    for (const std::size_t shards : {std::size_t{1}, std::size_t{8}}) {
      SCOPED_TRACE(std::to_string(threads) + " threads, " +
                   std::to_string(shards) + " shards");
      GcachedConfig cfg;
      cfg.num_shards = shards;
      cfg.capacity = 512;
      const auto cache = make_concurrent_cache("item-lru", w.map, cfg);
      const LoadResult res = replay(*cache, w, threads, 30'000);
      // The interleaving is schedule-dependent; these identities are not.
      EXPECT_EQ(res.ops, 30'000u);
      EXPECT_EQ(res.stats.accesses, res.ops);
      EXPECT_EQ(res.stats.hits + res.stats.misses + res.stats.delayed_hits,
                res.stats.accesses);
      EXPECT_EQ(res.stats.delayed_hits, 0u);  // zero fill: nothing in flight
      EXPECT_EQ(res.stats.temporal_hits + res.stats.spatial_hits,
                res.stats.hits);
      // A temporal hit takes no hold; every other op takes at least one.
      EXPECT_GE(res.lock_acquisitions + res.lockfree_hits, res.ops);
      EXPECT_LE(res.lockfree_hits, res.stats.hits);
      EXPECT_EQ(res.offered_ops_per_sec, 0.0);  // closed loop reports none
      std::size_t occupancy = 0;
      const std::vector<obs::ShardCounters> counters = cache->shard_counters();
      for (std::size_t s = 0; s < cache->num_shards(); ++s) {
        EXPECT_LE(counters[s].residency, cache->shard_capacity(s));
        occupancy += counters[s].residency;
      }
      EXPECT_LE(occupancy, cfg.capacity);
    }
  }
}

TEST(GcachedShardLock, ContendedAcquisitionCountsOneContentionAndItsYields) {
  // One thread holds the shard while a second calls lock(): the second's
  // try_locks fail, one yield each, until the holder releases, and lock()
  // returns how many failed. A contender descheduled past the whole hold
  // finds the lock free and returns 0, so the round is repeated until one
  // contends; the holder's uncontended guard reports no failure.
  bool contended_round = false;
  for (int round = 0; round < 100 && !contended_round; ++round) {
    ShardLock lock;
    std::atomic<bool> started{false};
    std::uint64_t failures = 0;
    std::thread second;
    {
      ShardGuard guard(lock);
      EXPECT_EQ(guard.trylock_failures(), 0u);
      second = std::thread([&] {
        started.store(true, std::memory_order_release);
        failures = lock.lock();
        lock.unlock();
      });
      while (!started.load(std::memory_order_acquire))
        std::this_thread::yield();
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    second.join();
    contended_round = failures >= 1;
  }
  EXPECT_TRUE(contended_round);
}

TEST(GcachedConcurrent, PercentilesAreOrdered) {
  const Workload w = small_zipf();
  GcachedConfig cfg;
  cfg.num_shards = 2;
  cfg.capacity = 256;
  const auto cache = make_concurrent_cache("block-fifo", w.map, cfg);
  const LoadResult res = replay(*cache, w, 2, 10'000);
  EXPECT_GT(res.ops_per_sec, 0.0);
  EXPECT_LE(res.p50_us, res.p99_us);
  EXPECT_LE(res.p99_us, res.p999_us);
  EXPECT_LE(res.p999_us, res.max_us);
}

// ---- Fill registers (fills slept unlocked) ----------------------------------

TEST(GcachedMshr, CoalescingOneFillManyDelayedHits) {
  // K threads missing on one block must produce exactly 1 fill and K-1
  // delayed hits. The 300ms fill dwarfs every scheduling latency in the
  // setup: the filler links its fill register within the first 50ms (it
  // only needs one uncontended lock acquisition), so all three waiters
  // provably arrive mid-fill and coalesce.
  const Workload w = small_zipf();
  GcachedConfig cfg;
  cfg.num_shards = 1;
  cfg.capacity = 64;
  cfg.fill_latency_ns = 300'000'000;
  const auto cache = make_concurrent_cache("item-lru", w.map, cfg);
  const BlockId block = w.map->block_of(0);
  std::thread filler([&] {
    ClientContext ctx;
    cache->access(ctx, 0, block);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::vector<std::thread> waiters;
  for (int t = 0; t < 3; ++t)
    waiters.emplace_back([&cache, &block, t] {
      ClientContext ctx;
      cache->access(ctx, 0, block);
    });
  filler.join();
  for (std::thread& th : waiters) th.join();
  const SimStats stats = cache->collect_stats();
  EXPECT_EQ(stats.accesses, 4u);
  EXPECT_EQ(stats.misses, 1u);        // one fill — never a second
  EXPECT_EQ(stats.delayed_hits, 3u);  // every waiter coalesced
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.free_delayed_hits, 0u);  // item-lru never sideloads
  EXPECT_GT(stats.delayed_hit_wait_ns, 0u);
  EXPECT_EQ(stats.hits + stats.misses + stats.delayed_hits, stats.accesses);
}

TEST(GcachedMshr, SideloadedWaiterIsAFreeDelayedHit) {
  // A waiter whose item the pending fill SIDELOADS (block-lru loads whole
  // blocks; item 1 shares item 0's block) is classified a free delayed hit:
  // the requester never asked for it, so spatial locality alone paid for
  // the wait — the paper's Definition-1 split applied to fill latency.
  const Workload w = small_zipf();
  GcachedConfig cfg;
  cfg.num_shards = 1;
  cfg.capacity = 64;
  cfg.fill_latency_ns = 300'000'000;
  const auto cache = make_concurrent_cache("block-lru", w.map, cfg);
  ASSERT_EQ(w.map->block_of(0), w.map->block_of(1));
  const BlockId block = w.map->block_of(0);
  std::thread filler([&] {
    ClientContext ctx;
    cache->access(ctx, 0, block);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::thread sibling([&] {
    ClientContext ctx;
    cache->access(ctx, 1, block);  // sideloaded by the in-flight fill
  });
  std::thread repeat([&] {
    ClientContext ctx;
    cache->access(ctx, 0, block);  // the fill's own requested item
  });
  filler.join();
  sibling.join();
  repeat.join();
  const SimStats stats = cache->collect_stats();
  EXPECT_EQ(stats.accesses, 3u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.delayed_hits, 2u);
  EXPECT_EQ(stats.free_delayed_hits, 1u);  // the sideloaded sibling only
  EXPECT_GT(stats.delayed_hit_wait_ns, 0u);
}

TEST(GcachedMshr, TenFillsInFlightOnOneShardAllCoalesce) {
  // Ten clients miss ten distinct blocks of one shard, so ten fills are in
  // flight at once, each on its client's own register: the shard lists all
  // ten. A second client per block, arriving mid-fill, coalesces onto that
  // block's fill, so every block costs one miss and one delayed hit. Any
  // per-shard cap on in-flight fills below ten would list fewer and send
  // the extra second clients to fills of their own. The 300ms fill dwarfs
  // the setup's scheduling latencies, as above.
  constexpr std::size_t kFills = 10;
  const Workload w = small_zipf();
  GcachedConfig cfg;
  cfg.num_shards = 1;
  cfg.capacity = 64;
  cfg.fill_latency_ns = 300'000'000;
  const auto cache = make_concurrent_cache("item-lru", w.map, cfg);
  const auto miss_block = [&cache, &w](BlockId block) {
    ClientContext ctx;
    cache->access(ctx, w.map->items_of(block)[0], block);
  };
  std::vector<std::thread> clients;
  for (BlockId b = 0; b < kFills; ++b) clients.emplace_back(miss_block, b);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(150);
  while (cache->shard_counters()[0].fills_inflight < kFills &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(cache->shard_counters()[0].fills_inflight, kFills);
  for (BlockId b = 0; b < kFills; ++b) clients.emplace_back(miss_block, b);
  for (std::thread& th : clients) th.join();
  const obs::ShardCounters v = cache->shard_counters()[0];
  EXPECT_EQ(v.coalesced, kFills);
  EXPECT_EQ(v.stats.misses, kFills);
  EXPECT_EQ(v.stats.delayed_hits, kFills);
  EXPECT_EQ(v.fills_inflight, 0u);
}

TEST(GcachedMshr, AsyncConservationHoldsOnEverySchedule) {
  // hits + misses + delayed_hits == accesses on EVERY schedule of the fill
  // path — the delayed-hit extension of the closed-loop conservation law.
  // block-lru exercises the sideload (free-delayed-hit) commits too. With
  // 12 clients up to twelve fills are in flight on one shard, and at 8
  // shards each client's one register moves from shard to shard.
  const Workload w = small_zipf();
  for (const std::size_t threads :
       {std::size_t{2}, hardware_threads(), std::size_t{12}}) {
    for (const std::size_t shards : {std::size_t{1}, std::size_t{8}}) {
      SCOPED_TRACE(std::to_string(threads) + " threads, " +
                   std::to_string(shards) + " shards");
      GcachedConfig cfg;
      cfg.num_shards = shards;
      cfg.capacity = 512;
      cfg.fill_latency_ns = 20'000;
      const auto cache = make_concurrent_cache("block-lru", w.map, cfg);
      const LoadResult res = replay(*cache, w, threads, 20'000);
      EXPECT_EQ(res.stats.accesses, res.ops);
      EXPECT_EQ(res.stats.hits + res.stats.misses + res.stats.delayed_hits,
                res.stats.accesses);
      EXPECT_EQ(res.stats.temporal_hits + res.stats.spatial_hits,
                res.stats.hits);
      EXPECT_LE(res.stats.free_delayed_hits, res.stats.delayed_hits);
      // Every delayed hit parked on a fill first; a woken waiter whose item
      // the fill did not load retries, so parks can outnumber them.
      std::uint64_t coalesced = 0;
      for (const obs::ShardCounters& v : cache->shard_counters()) {
        coalesced += v.coalesced;
        EXPECT_EQ(v.fills_inflight, 0u);
      }
      EXPECT_LE(res.stats.delayed_hits, coalesced);
      std::size_t occupancy = 0;
      const std::vector<obs::ShardCounters> counters = cache->shard_counters();
      for (std::size_t s = 0; s < cache->num_shards(); ++s) {
        EXPECT_LE(counters[s].residency, cache->shard_capacity(s));
        occupancy += counters[s].residency;
      }
      EXPECT_LE(occupancy, cfg.capacity);
    }
  }
}

TEST(GcachedMshr, SingleClientAsyncFillPreservesSequentialStats) {
  // One shard, one thread, with a real (1us) fill: the client's
  // own fill registers, sleeps unlocked, and commits before access()
  // returns, with no concurrent observer — so the transition order is
  // simulate_fast's and the stats (delayed counters included: all zero)
  // stay bit-identical. The fill only shifts time, never statistics.
  const Workload w = small_zipf();
  for (const std::string spec : {"item-lru", "block-lru"}) {
    SCOPED_TRACE(spec);
    GcachedConfig cfg;
    cfg.num_shards = 1;
    cfg.capacity = 512;
    cfg.fill_latency_ns = 1'000;
    const auto cache = make_concurrent_cache(spec, w.map, cfg);
    const LoadResult res = replay(*cache, w, 1);
    const SimStats expected = simulate_fast_spec(spec, w, 512);
    EXPECT_EQ(res.stats, expected);
  }
}

// ---- The backend fill's deadline wait ---------------------------------------

/// Runs `body` on a fresh thread with the load generator's 1 us timer
/// slack, so the wait's sleep ends as early as a client's does: under the
/// default 50 us slack a sleep that stopped short of its deadline would be
/// padded past it and hide the fault.
template <typename Body>
void on_client_like_thread(Body&& body) {
  std::thread t([&body] {
#if defined(__linux__)
    prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
#endif
    body();
  });
  t.join();
}

TEST(GcachedBackendFill, NeverReturnsBeforeItsLatency) {
  // Every fill takes at least its latency of steady_clock time, on both
  // sides of the split: a fill no longer than kFillSpinNs only spins, a
  // longer one sleeps to kFillSpinNs before its deadline and spins the
  // rest. Only this lower bound is asserted; how far past it a fill ends is
  // up to the scheduler.
  using Clock = std::chrono::steady_clock;
  const std::uint64_t latencies[] = {
      1, 1'000, kFillSpinNs - 1, kFillSpinNs, kFillSpinNs + 1, 20'000,
      2'000'000};
  for (const std::uint64_t z : latencies) {
    SCOPED_TRACE("fill of " + std::to_string(z) + " ns");
    std::uint64_t early = 0;
    on_client_like_thread([z, &early] {
      for (int i = 0; i < 200; ++i) {
        const auto t0 = Clock::now();
        backend_fill(z);
        if (Clock::now() - t0 < std::chrono::nanoseconds(z)) ++early;
      }
    });
    EXPECT_EQ(early, 0u);
  }
}

TEST(GcachedBackendFill, SleepsTheBulkOfALongFill) {
  // A 50 ms fill costs its thread under 10 ms of CPU time: everything but
  // the last kFillSpinNs is slept. A fill that spun its whole latency would
  // burn ~50 ms.
  std::int64_t cpu_ns = 0;
  on_client_like_thread([&cpu_ns] {
    const auto thread_cpu_ns = [] {
      timespec ts{};
      clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
      return std::int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
    };
    const std::int64_t before = thread_cpu_ns();
    backend_fill(50'000'000);
    cpu_ns = thread_cpu_ns() - before;
  });
  EXPECT_LT(cpu_ns, 10'000'000);
}

// ---- Open-loop (Poisson) arrivals -------------------------------------------

TEST(GcachedLoadgen, PoissonArrivalsReportOfferedVsAchieved) {
  const Workload w = small_zipf();
  GcachedConfig cfg;
  cfg.num_shards = 1;
  cfg.capacity = 512;
  const auto cache = make_concurrent_cache("item-lru", w.map, cfg);
  LoadSpec spec;
  spec.threads = 2;
  spec.total_ops = 20'000;
  spec.arrival = Arrival::kPoisson;
  spec.rate_ops_per_sec = 2e6;
  const LoadResult res = run_load(*cache, w.trace, w.trace.block_ids(), spec);
  EXPECT_EQ(res.ops, 20'000u);
  EXPECT_EQ(res.latency_samples, res.ops);  // the open loop times every op
  EXPECT_DOUBLE_EQ(res.offered_ops_per_sec, 2e6);
  EXPECT_GT(res.ops_per_sec, 0.0);
  // Conservation is arrival-process-independent.
  EXPECT_EQ(res.stats.accesses, res.ops);
  EXPECT_EQ(res.stats.hits + res.stats.misses + res.stats.delayed_hits,
            res.stats.accesses);
  EXPECT_LE(res.p50_us, res.p99_us);
  EXPECT_LE(res.p99_us, res.p999_us);
  EXPECT_LE(res.p999_us, res.max_us);
}

TEST(GcachedLoadgen, ThreadsShorterThanOneGapTimeNothingAndStillPass) {
  // Each closed-loop client replays fewer ops than its first untimed gap,
  // so no op is timed. The count checks must hold, not throw, and the
  // percentiles read 0.
  const Workload w = small_zipf();
  GcachedConfig cfg;
  cfg.num_shards = 2;
  cfg.capacity = 256;
  const auto cache = make_concurrent_cache("item-lru", w.map, cfg);
  LoadSpec spec;
  spec.threads = 2;
  spec.total_ops = 6;
  spec.seed = 1;
  for (std::size_t t = 0; t < spec.threads; ++t)
    ASSERT_EQ(detail::timed_ops(3, detail::thread_rng(spec.seed, t)), 0u)
        << "seed no longer gives thread " << t << " a gap of 3 or more";
  const LoadResult res = run_load(*cache, w.trace, w.trace.block_ids(), spec);
  EXPECT_EQ(res.ops, 6u);
  EXPECT_EQ(res.stats.accesses, 6u);
  EXPECT_EQ(res.latency_samples, 0u);
  EXPECT_EQ(res.p50_us, 0.0);
  EXPECT_EQ(res.max_us, 0.0);
}

TEST(GcachedLoadgen, PoissonArrivalsRequireAPositiveRate) {
  const Workload w = small_zipf();
  GcachedConfig cfg;
  cfg.num_shards = 1;
  cfg.capacity = 64;
  const auto cache = make_concurrent_cache("item-lru", w.map, cfg);
  LoadSpec spec;
  spec.threads = 1;
  spec.arrival = Arrival::kPoisson;  // rate left at 0.0
  EXPECT_THROW(run_load(*cache, w.trace, w.trace.block_ids(), spec),
               ContractViolation);
}

}  // namespace
}  // namespace gcaching::gcached
