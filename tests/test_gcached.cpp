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
// The concurrent tests get their teeth from the tsan preset (ctest label
// `gcached` runs there at 1/2/hw threads).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gcached/gcached.hpp"
#include "gcached/loadgen.hpp"
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
  const Workload w = small_zipf();
  for (const std::string& spec : supported_concurrent_specs()) {
    for (const std::size_t capacity : {std::size_t{64}, std::size_t{512}}) {
      SCOPED_TRACE(spec + " @ " + std::to_string(capacity));
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
      EXPECT_EQ(res.lock_acquisitions, res.ops);
      EXPECT_EQ(res.offered_ops_per_sec, 0.0);  // closed loop reports none
      std::size_t occupancy = 0;
      for (std::size_t s = 0; s < cache->num_shards(); ++s) {
        EXPECT_LE(cache->shard_occupancy(s), cache->shard_capacity(s));
        occupancy += cache->shard_occupancy(s);
      }
      EXPECT_LE(occupancy, cfg.capacity);
    }
  }
}

TEST(GcachedShardLock, ContendedAcquisitionCountsOneContentionAndItsYields) {
  // One thread holds the shard while a second calls lock(): the second's
  // first try_lock fails (one contended acquisition), and it yields until
  // the holder releases (at least one retry). A contender descheduled past
  // the whole hold finds the lock free and records no contention, so the
  // round is repeated until one contends; every round must count exactly
  // one acquisition and at most one contention.
  bool contended_round = false;
  for (int round = 0; round < 100 && !contended_round; ++round) {
    ShardLock lock;
    ClientContext holder;
    ClientContext contender;
    std::atomic<bool> started{false};
    std::thread second;
    {
      ShardGuard guard(lock, holder);
      second = std::thread([&] {
        started.store(true, std::memory_order_release);
        lock.lock(contender);
        lock.unlock();
      });
      while (!started.load(std::memory_order_acquire))
        std::this_thread::yield();
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    second.join();
    EXPECT_EQ(holder.lock_acquisitions, 1u);
    EXPECT_EQ(holder.lock_contended, 0u);
    EXPECT_EQ(contender.lock_acquisitions, 1u);
    EXPECT_LE(contender.lock_contended, 1u);
    if (contender.lock_contended == 1) {
      EXPECT_GE(contender.backoff_rounds, 1u);
      contended_round = true;
    } else {
      EXPECT_EQ(contender.backoff_rounds, 0u);
    }
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

// ---- MSHR semantics (fills slept unlocked) ----------------------------------

TEST(GcachedMshr, CoalescingOneFillManyDelayedHits) {
  // K threads missing on one block must produce exactly 1 fill and K-1
  // delayed hits. The 300ms fill dwarfs every scheduling latency in the
  // setup: the filler registers its MSHR entry within the first 50ms (it
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

TEST(GcachedMshr, AsyncConservationHoldsOnEverySchedule) {
  // hits + misses + delayed_hits == accesses on EVERY schedule of the MSHR
  // fill path — the delayed-hit extension of the closed-loop conservation
  // law. block-lru exercises the sideload (free-delayed-hit) commits too.
  const Workload w = small_zipf();
  for (const std::size_t threads : {std::size_t{2}, hardware_threads()}) {
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
      std::size_t occupancy = 0;
      for (std::size_t s = 0; s < cache->num_shards(); ++s) {
        EXPECT_LE(cache->shard_occupancy(s), cache->shard_capacity(s));
        occupancy += cache->shard_occupancy(s);
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
