// Unit tests for GCM (randomized marking with granularity change) and the
// marking ablations (Section 6).
#include <gtest/gtest.h>

#include <cstddef>
#include <utility>
#include <vector>

#include "core/simulator.hpp"
#include "policies/block_geometry.hpp"
#include "policies/factory.hpp"
#include "policies/gcm.hpp"
#include "traces/synthetic.hpp"

namespace gcaching {
namespace {

TEST(Gcm, SideloadsBlockUnmarked) {
  auto map = make_uniform_blocks(16, 4);
  Gcm gcm(1);
  Simulation sim(*map, gcm, 8);
  sim.access(0);
  // Whole block loaded, only the requested item marked.
  EXPECT_EQ(sim.cache().occupancy(), 4u);
  EXPECT_EQ(gcm.num_marked(), 1u);
  EXPECT_EQ(sim.stats().sideloads, 3u);
}

TEST(Gcm, HitsMarkItems) {
  auto map = make_uniform_blocks(16, 4);
  Gcm gcm(1);
  Simulation sim(*map, gcm, 8);
  sim.access(0);
  sim.access(1);  // spatial hit -> marks item 1
  EXPECT_EQ(gcm.num_marked(), 2u);
  EXPECT_EQ(sim.stats().spatial_hits, 1u);
}

TEST(Gcm, SpatialItemsNeverDisplaceMarked) {
  auto map = make_uniform_blocks(64, 4);
  Gcm gcm(7);
  Simulation sim(*map, gcm, 8);
  // Mark two items by requesting them.
  sim.access(0);   // block 0 loaded, 0 marked
  sim.access(1);   // hit, marks 1
  sim.access(4);   // block 1 loaded; evictions must spare 0 and 1
  EXPECT_TRUE(sim.cache().contains(0));
  EXPECT_TRUE(sim.cache().contains(1));
}

TEST(Gcm, PhaseResetWhenAllMarked) {
  auto map = make_singleton_blocks(8);  // B = 1: degenerate marking
  Gcm gcm(3);
  Simulation sim(*map, gcm, 2);
  sim.access(0);
  sim.access(1);  // both marked, cache full
  EXPECT_EQ(gcm.num_marked(), 2u);
  sim.access(2);  // must unmark all, evict one, load 2 marked
  EXPECT_TRUE(sim.cache().contains(2));
  EXPECT_EQ(sim.cache().occupancy(), 2u);
}

TEST(Gcm, DeterministicGivenSeed) {
  const auto w = traces::zipf_blocks(32, 4, 6000, 0.9, 2, 5);
  Gcm a(11), b(11);
  EXPECT_EQ(simulate(w, a, 24).misses, simulate(w, b, 24).misses);
}

TEST(Gcm, StatsConsistentOnMixedWorkload) {
  const auto w = traces::scan_with_hotset(64, 8, 20000, 0.3, 0.9, 4, 71);
  Gcm gcm(2);
  const SimStats s = simulate(w, gcm, 64);
  EXPECT_EQ(s.hits + s.misses, s.accesses);
  EXPECT_EQ(s.temporal_hits + s.spatial_hits, s.hits);
}

TEST(Gcm, BeatsGranularityObliviousMarkingOnBlockScans) {
  // Whole-block scans: classic marking misses on every item, GCM once per
  // block (the Section 6.1 separation).
  const auto w = traces::sequential_scan(1024, 8, 8192);
  Gcm gcm(1);
  MarkingItem classic(1);
  const auto s_gcm = simulate(w, gcm, 128);
  const auto s_classic = simulate(w, classic, 128);
  EXPECT_LT(s_gcm.misses * 2, s_classic.misses);
}

// B = 2^32 has no 32-bit shift, so the flat index takes it as a snapshot:
// a 100-item universe is one block, and gcm runs on it in the fast engine.
TEST(Gcm, BlockOfTwoToThe32IsOneBlock) {
  const UniformBlockMap map(100, std::size_t{1} << 32);
  FlatBlockIndex index;
  index.build(map);
  for (ItemId it = 0; it < 100; ++it) {
    ASSERT_EQ(index.block_of(it), 0u) << "item " << it;
    ASSERT_EQ(index.position_of(it), it);
  }
  EXPECT_EQ(index.block_size(0), 100u);

  std::vector<ItemId> acc;
  for (ItemId i = 0; i < 1000; ++i) acc.push_back((i * 37) % 100);
  const Trace trace(std::move(acc));
  const SimStats stats = simulate_fast_spec("gcm", map, trace, 10);
  EXPECT_EQ(stats.accesses, 1000u);
  EXPECT_EQ(stats, simulate(map, trace, *make_policy("gcm", 10), 10));
}

TEST(MarkingItem, NeverSideloads) {
  const auto w = traces::zipf_blocks(32, 4, 4000, 0.8, 3, 9);
  MarkingItem m(4);
  const SimStats s = simulate(w, m, 32);
  EXPECT_EQ(s.sideloads, 0u);
  EXPECT_EQ(s.spatial_hits, 0u);
}

TEST(MarkingItem, PhaseStructureServesTemporalLocality) {
  auto map = make_singleton_blocks(16);
  MarkingItem m(5);
  // Working set of 4 with capacity 4: after the cold pass everything hits.
  Trace t;
  for (int rep = 0; rep < 10; ++rep)
    for (ItemId it = 0; it < 4; ++it) t.push(it);
  const SimStats s = simulate(*map, t, m, 4);
  EXPECT_EQ(s.misses, 4u);
}

TEST(MarkingBlockMark, MarksWholeBlock) {
  auto map = make_uniform_blocks(16, 4);
  MarkingBlockMark m(1);
  Simulation sim(*map, m, 8);
  sim.access(0);
  EXPECT_EQ(sim.cache().occupancy(), 4u);
  EXPECT_EQ(sim.stats().sideloads, 3u);
}

TEST(MarkingBlockMark, RequestedItemSurvivesLoad) {
  // Tight cache (k = B): loading a block evicts through phase resets; the
  // requested item must never be the victim.
  auto map = make_uniform_blocks(64, 4);
  MarkingBlockMark m(3);
  Simulation sim(*map, m, 4);
  for (ItemId blk = 0; blk < 8; ++blk) {
    sim.access(blk * 4 + 1);
    EXPECT_TRUE(sim.cache().contains(blk * 4 + 1));
  }
}

TEST(MarkingBlockMark, SuffersPollutionVsGcm) {
  // Hot items spread one-per-block: marking everything protects pollution
  // for whole phases; GCM's unmarked sideloads yield to marked hot items.
  const auto w = traces::hot_item_per_block(32, 8, 30000, 32, 0.0, 23);
  Gcm gcm(1);
  MarkingBlockMark all(1);
  const auto s_gcm = simulate(w, gcm, 64);
  const auto s_all = simulate(w, all, 64);
  EXPECT_LE(s_gcm.misses, s_all.misses);
}

TEST(MarkingPolicies, DeterministicAcrossRuns) {
  const auto w = traces::zipf_blocks(16, 4, 5000, 0.7, 2, 12);
  MarkingBlockMark a(9), b(9);
  EXPECT_EQ(simulate(w, a, 24).misses, simulate(w, b, 24).misses);
}

}  // namespace
}  // namespace gcaching
