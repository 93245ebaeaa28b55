// Unit tests for the Mattson stack-algorithm miss-ratio curves: they must
// agree exactly with direct LRU simulation at every sampled size.
#include <gtest/gtest.h>

#include "core/simulator.hpp"
#include "locality/mrc.hpp"
#include "policies/block_lru.hpp"
#include "policies/item_lru.hpp"
#include "traces/synthetic.hpp"
#include "util/rng.hpp"

namespace gcaching::locality {
namespace {

TEST(StackDistances, HandComputedExample) {
  // keys: a b a c b a  ->  distances: a:inf b:inf a:2 c:inf b:3 a:3
  const auto hist =
      stack_distances(std::vector<std::uint32_t>{0, 1, 0, 2, 1, 0}, 3);
  EXPECT_EQ(hist.cold, 3u);
  ASSERT_GE(hist.hist.size(), 4u);
  EXPECT_EQ(hist.hist[1], 0u);
  EXPECT_EQ(hist.hist[2], 1u);
  EXPECT_EQ(hist.hist[3], 2u);
}

TEST(StackDistances, RepeatIsDistanceOne) {
  const auto hist = stack_distances(std::vector<std::uint32_t>{5, 5, 5}, 8);
  EXPECT_EQ(hist.cold, 1u);
  EXPECT_EQ(hist.hist[1], 2u);
}

TEST(StackDistances, MissesAtMatchesDefinition) {
  const auto hist =
      stack_distances(std::vector<std::uint32_t>{0, 1, 0, 2, 1, 0}, 3);
  // c=1: hits need distance <= 1 -> none; all 6 accesses miss.
  EXPECT_EQ(hist.misses_at(1), 6u);
  // c=2: the distance-2 access hits -> 5 misses.
  EXPECT_EQ(hist.misses_at(2), 5u);
  // c=3: all finite distances hit -> 3 misses (cold only).
  EXPECT_EQ(hist.misses_at(3), 3u);
  EXPECT_EQ(hist.misses_at(100), 3u);
}

TEST(Mrc, MatchesItemLruSimulationExactly) {
  SplitMix64 rng(112);
  for (int round = 0; round < 5; ++round) {
    const auto w = traces::zipf_items(128, 8, 4000, 0.8,
                                      1000 + static_cast<unsigned>(round));
    const std::vector<std::size_t> sizes = {1, 2, 4, 8, 16, 32, 64, 128};
    const auto curve = lru_mrc(w, sizes);
    for (std::size_t j = 0; j < sizes.size(); ++j) {
      ItemLru lru;
      const SimStats s = simulate(w, lru, sizes[j]);
      EXPECT_EQ(curve.misses[j], s.misses)
          << "round " << round << " size " << sizes[j];
    }
  }
}

TEST(Mrc, MatchesBlockLruSimulationExactly) {
  const auto w = traces::zipf_blocks(32, 8, 4000, 0.9, 4, 77);
  const std::vector<std::size_t> sizes = {8, 16, 32, 64, 128, 256};
  const auto curve = block_lru_mrc(w, sizes);
  for (std::size_t j = 0; j < sizes.size(); ++j) {
    BlockLru blru;
    const SimStats s = simulate(w, blru, sizes[j]);
    EXPECT_EQ(curve.misses[j], s.misses) << "size " << sizes[j];
  }
}

TEST(Mrc, MonotoneNonIncreasing) {
  const auto w = traces::scan_with_hotset(64, 8, 10000, 0.3, 0.9, 4, 5);
  std::vector<std::size_t> sizes;
  for (std::size_t s = 1; s <= 512; s *= 2) sizes.push_back(s);
  const auto curve = lru_mrc(w, sizes);
  for (std::size_t j = 1; j < sizes.size(); ++j)
    EXPECT_LE(curve.misses[j], curve.misses[j - 1]);
}

TEST(Mrc, RatioHelper) {
  const auto w = traces::sequential_scan(64, 8, 128);
  const auto curve = lru_mrc(w, {64});
  // First lap cold (64 misses), second lap hits: ratio 0.5.
  EXPECT_DOUBLE_EQ(curve.miss_ratio(0), 0.5);
}

TEST(Mrc, BlockCurveCapturesSpatialOpportunity) {
  // Sequential scan: the block-granularity curve (misses ~ per block) sits
  // ~B below the item curve at the same byte budget — the spatial locality
  // an Item Cache leaves on the table.
  const auto w = traces::sequential_scan(512, 8, 4096);
  const auto item = lru_mrc(w, {256});
  const auto block = block_lru_mrc(w, {256});
  EXPECT_GE(item.misses[0], block.misses[0] * 7);
}

}  // namespace
}  // namespace gcaching::locality
