// Unit tests for the offline Belady policies and the clairvoyant GC
// heuristic.
#include <gtest/gtest.h>

#include "core/simulator.hpp"
#include "offline/exact_opt.hpp"
#include "policies/belady.hpp"
#include "policies/block_lru.hpp"
#include "policies/item_lru.hpp"
#include "traces/synthetic.hpp"
#include "util/rng.hpp"

namespace gcaching {
namespace {

TEST(NextUseIndex, BasicNextPositions) {
  detail::NextUseIndex idx;
  idx.build(std::vector<std::uint32_t>{0, 1, 0, 2, 1}, 3);
  EXPECT_EQ(idx.next_after(0), 2u);
  EXPECT_EQ(idx.next_after(1), 4u);
  EXPECT_EQ(idx.next_after(2), detail::NextUseIndex::kNever);
  EXPECT_EQ(idx.next_after(3), detail::NextUseIndex::kNever);
  EXPECT_EQ(idx.next_after(4), detail::NextUseIndex::kNever);
}

TEST(FurthestQueue, PopsMaximum) {
  detail::FurthestQueue q;
  q.init(4);
  q.update(0, 10);
  q.update(1, 30);
  q.update(2, 20);
  EXPECT_EQ(q.pop_furthest(), 1u);
  EXPECT_EQ(q.pop_furthest(), 2u);
  EXPECT_EQ(q.pop_furthest(), 0u);
}

TEST(FurthestQueue, UpdateSupersedesOldEntries) {
  detail::FurthestQueue q;
  q.init(4);
  q.update(0, 100);
  q.update(0, 5);  // item 0 now due soon
  q.update(1, 50);
  EXPECT_EQ(q.pop_furthest(), 1u);
  EXPECT_EQ(q.pop_furthest(), 0u);
}

TEST(BeladyItem, ClassicExample) {
  // Textbook MIN example: with k = 3 Belady achieves the known optimum.
  auto map = make_singleton_blocks(5);
  const Trace t({0, 1, 2, 3, 0, 1, 4, 0, 1, 2, 3, 4});
  BeladyItem opt;
  const SimStats s = simulate(*map, t, opt, 3);
  // Known OPT for this trace at k = 3 is 7 misses.
  EXPECT_EQ(s.misses, 7u);
}

TEST(BeladyItem, NeverWorseThanLruOnSingletonBlocks) {
  SplitMix64 rng(123);
  for (int round = 0; round < 15; ++round) {
    Trace t;
    for (int p = 0; p < 400; ++p)
      t.push(static_cast<ItemId>(rng.below(20)));
    auto map = make_singleton_blocks(20);
    BeladyItem opt;
    ItemLru lru;
    const std::size_t k = 3 + rng.below(8);
    EXPECT_LE(simulate(*map, t, opt, k).misses,
              simulate(*map, t, lru, k).misses)
        << "round " << round;
  }
}

TEST(BeladyItem, MatchesExactOptInTraditionalModel) {
  // With singleton blocks, GC caching == traditional caching where Belady
  // is provably optimal; cross-check against the exact solver.
  SplitMix64 rng(77);
  for (int round = 0; round < 10; ++round) {
    Trace t;
    for (int p = 0; p < 24; ++p)
      t.push(static_cast<ItemId>(rng.below(6)));
    auto map = make_singleton_blocks(6);
    const std::size_t k = 2 + rng.below(3);
    BeladyItem opt;
    const auto exact = exact_offline_opt(*map, t, k);
    EXPECT_EQ(simulate(*map, t, opt, k).misses, exact.cost)
        << "round " << round << " k=" << k;
  }
}

TEST(BeladyItem, RequiresPrepare) {
  // The prepared_ precondition sits on the per-access hot path and is
  // hot-tier (compiled out under GC_FAST_SIM), like every per-access check.
  if (!kHotChecksEnabled) GTEST_SKIP() << "hot checks compiled out";
  auto map = make_singleton_blocks(4);
  BeladyItem opt;
  Simulation sim(*map, opt, 2);
  EXPECT_THROW(sim.access(0), ContractViolation);
}

TEST(BeladyBlock, KeepsBlockWithNearestReuse) {
  auto map = make_uniform_blocks(16, 4);
  BeladyBlock opt;
  // Blocks 0,1 fill capacity 8; block 2 arrives; block 0 is reused sooner
  // than block 1, so block 1 is evicted.
  const Trace t({0, 4, 8, 0, 4});
  const SimStats s = simulate(*map, t, opt, 8);
  // misses: 0, 4, 8 cold; "0" hits (kept); "4" misses (evicted).
  EXPECT_EQ(s.misses, 4u);
}

TEST(BeladyBlock, NeverWorseThanBlockLru) {
  const auto w = traces::zipf_blocks(32, 4, 6000, 0.9, 2, 91);
  BeladyBlock opt;
  BlockLru lru;
  EXPECT_LE(simulate(w, opt, 32).misses, simulate(w, lru, 32).misses);
}

TEST(BeladyGreedyGc, AtLeastExactOptOnSmallInstances) {
  SplitMix64 rng(55);
  for (int round = 0; round < 10; ++round) {
    Trace t;
    for (int p = 0; p < 20; ++p)
      t.push(static_cast<ItemId>(rng.below(8)));
    auto map = make_uniform_blocks(8, 4);
    const std::size_t k = 4 + rng.below(3);
    BeladyGreedyGc heur;
    const auto exact = exact_offline_opt(*map, t, k);
    EXPECT_GE(simulate(*map, t, heur, k).misses, exact.cost)
        << "round " << round;
  }
}

TEST(BeladyGreedyGc, ExploitsSpatialLocality) {
  const auto w = traces::sequential_scan(256, 8, 2048);
  BeladyGreedyGc heur;
  ItemLru lru;
  EXPECT_LT(simulate(w, heur, 32).misses, simulate(w, lru, 32).misses);
}

TEST(BeladyGreedyGc, SkipsUselessSideloads) {
  auto map = make_uniform_blocks(8, 4);
  BeladyGreedyGc heur;
  // Items 1, 2, 3 are never accessed again: no reason to side-load them.
  const Trace t({0, 4, 0});
  const SimStats s = simulate(*map, t, heur, 4);
  EXPECT_EQ(s.sideloads, 0u);
  EXPECT_EQ(s.misses, 2u);
}

TEST(BeladyGreedyGc, SideloadsProfitableSiblings) {
  auto map = make_uniform_blocks(8, 4);
  BeladyGreedyGc heur;
  // 1 and 2 are used before 0's reuse: worth taking on the first miss.
  const Trace t({0, 1, 2, 0});
  const SimStats s = simulate(*map, t, heur, 4);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.spatial_hits, 2u);
}

}  // namespace
}  // namespace gcaching
