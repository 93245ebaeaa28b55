// Unit tests for core/cache_contents: the model-invariant enforcement and
// the spatial/temporal hit taxonomy.
#include <gtest/gtest.h>

#include "core/cache_contents.hpp"
#include "util/contracts.hpp"

namespace gcaching {
namespace {

// Contract-violation tests exercise the hot-tier checks, which the
// GC_FAST_SIM configuration compiles out; skip them there.
#define SKIP_WITHOUT_HOT_CHECKS() \
  if (!kHotChecksEnabled) GTEST_SKIP() << "hot checks compiled out"

class CacheContentsTest : public ::testing::Test {
 protected:
  CacheContentsTest() : map_(12, 4), cache_(map_, 6) {}
  UniformBlockMap map_;
  CacheContents cache_;
};

TEST_F(CacheContentsTest, StartsEmpty) {
  EXPECT_EQ(cache_.occupancy(), 0u);
  EXPECT_EQ(cache_.capacity(), 6u);
  EXPECT_FALSE(cache_.contains(0));
  EXPECT_FALSE(cache_.in_miss());
}

TEST_F(CacheContentsTest, LoadOutsideMissThrows) {
  SKIP_WITHOUT_HOT_CHECKS();
  EXPECT_THROW(cache_.load(0), ContractViolation);
}

TEST_F(CacheContentsTest, BasicMissTransaction) {
  cache_.begin_miss(1);
  EXPECT_TRUE(cache_.in_miss());
  EXPECT_EQ(cache_.missed_block(), 0u);
  cache_.load(1);
  cache_.end_miss();
  EXPECT_TRUE(cache_.contains(1));
  EXPECT_EQ(cache_.occupancy(), 1u);
  EXPECT_EQ(cache_.items_loaded(), 1u);
  EXPECT_EQ(cache_.sideloads(), 0u);
}

TEST_F(CacheContentsTest, SideloadWithinBlockAllowed) {
  cache_.begin_miss(1);
  cache_.load(1);
  cache_.load(0);
  cache_.load(3);
  cache_.end_miss();
  EXPECT_EQ(cache_.occupancy(), 3u);
  EXPECT_EQ(cache_.sideloads(), 2u);
}

TEST_F(CacheContentsTest, LoadOutsideMissedBlockThrows) {
  SKIP_WITHOUT_HOT_CHECKS();
  cache_.begin_miss(1);  // block 0 = items 0..3
  EXPECT_THROW(cache_.load(4), ContractViolation);  // block 1
  cache_.load(1);
  cache_.end_miss();
}

TEST_F(CacheContentsTest, EndMissWithoutRequestedItemThrows) {
  SKIP_WITHOUT_HOT_CHECKS();
  cache_.begin_miss(1);
  cache_.load(0);  // sideload only, requested item 1 not loaded
  EXPECT_THROW(cache_.end_miss(), ContractViolation);
}

TEST_F(CacheContentsTest, CapacityEnforcedAtLoadTime) {
  SKIP_WITHOUT_HOT_CHECKS();
  // Fill to capacity 6 via two blocks.
  cache_.begin_miss(0);
  for (ItemId it = 0; it < 4; ++it) cache_.load(it);
  cache_.end_miss();
  cache_.begin_miss(4);
  cache_.load(4);
  cache_.load(5);
  EXPECT_THROW(cache_.load(6), ContractViolation);  // would exceed 6
  cache_.evict(0);
  EXPECT_NO_THROW(cache_.load(6));
  cache_.end_miss();
  EXPECT_EQ(cache_.occupancy(), 6u);
}

TEST_F(CacheContentsTest, BeginMissOnResidentItemThrows) {
  SKIP_WITHOUT_HOT_CHECKS();
  cache_.begin_miss(2);
  cache_.load(2);
  cache_.end_miss();
  EXPECT_THROW(cache_.begin_miss(2), ContractViolation);
}

TEST_F(CacheContentsTest, DoubleLoadThrows) {
  SKIP_WITHOUT_HOT_CHECKS();
  cache_.begin_miss(2);
  cache_.load(2);
  EXPECT_THROW(cache_.load(2), ContractViolation);
  cache_.end_miss();
}

TEST_F(CacheContentsTest, EvictNonResidentThrows) {
  SKIP_WITHOUT_HOT_CHECKS();
  cache_.begin_miss(2);
  EXPECT_THROW(cache_.evict(7), ContractViolation);
  cache_.load(2);
  cache_.end_miss();
}

TEST_F(CacheContentsTest, EvictOutsideMissIsAllowed) {
  cache_.begin_miss(2);
  cache_.load(2);
  cache_.end_miss();
  // Definition 1 constrains loads, not evictions (e.g. IBLP promotion).
  EXPECT_NO_THROW(cache_.evict(2));
  EXPECT_FALSE(cache_.contains(2));
}

TEST_F(CacheContentsTest, HitClassificationSpatialThenTemporal) {
  cache_.begin_miss(1);
  cache_.load(1);
  cache_.load(2);  // sideload
  cache_.end_miss();
  // First touch of the sideloaded item: spatial hit.
  EXPECT_EQ(cache_.record_hit(2), HitKind::kSpatial);
  // Second touch: temporal.
  EXPECT_EQ(cache_.record_hit(2), HitKind::kTemporal);
  // The requested item's hits are temporal from the start.
  EXPECT_EQ(cache_.record_hit(1), HitKind::kTemporal);
}

TEST_F(CacheContentsTest, WastedSideloadAccounting) {
  cache_.begin_miss(1);
  cache_.load(1);
  cache_.load(2);
  cache_.load(3);
  cache_.end_miss();
  EXPECT_EQ(cache_.record_hit(2), HitKind::kSpatial);  // 2 gets used
  cache_.begin_miss(8);
  cache_.evict(3);  // never touched: pollution
  cache_.evict(2);  // touched: not wasted
  cache_.evict(1);  // requested load: not wasted
  cache_.load(8);
  cache_.end_miss();
  EXPECT_EQ(cache_.wasted_sideloads(), 1u);
  EXPECT_EQ(cache_.evictions(), 3u);
}

TEST_F(CacheContentsTest, RecordHitOnAbsentThrows) {
  SKIP_WITHOUT_HOT_CHECKS();
  EXPECT_THROW(cache_.record_hit(0), ContractViolation);
}

TEST_F(CacheContentsTest, RecordHitDuringMissThrows) {
  SKIP_WITHOUT_HOT_CHECKS();
  cache_.begin_miss(1);
  cache_.load(1);
  EXPECT_THROW(cache_.record_hit(1), ContractViolation);
  cache_.end_miss();
}

TEST_F(CacheContentsTest, ResidentEnumeration) {
  cache_.begin_miss(5);
  cache_.load(5);
  cache_.load(6);
  cache_.end_miss();
  const auto res = cache_.resident_items();
  ASSERT_EQ(res.size(), 2u);
  EXPECT_EQ(res[0], 5u);
  EXPECT_EQ(res[1], 6u);
  EXPECT_EQ(cache_.residents_of_block(1), 2u);
  EXPECT_EQ(cache_.residents_of_block(0), 0u);
}

TEST_F(CacheContentsTest, ResetClearsEverything) {
  cache_.begin_miss(0);
  cache_.load(0);
  cache_.load(1);
  cache_.end_miss();
  cache_.reset();
  EXPECT_EQ(cache_.occupancy(), 0u);
  EXPECT_EQ(cache_.items_loaded(), 0u);
  EXPECT_FALSE(cache_.contains(0));
}

TEST(CacheContents, ZeroCapacityRejected) {
  UniformBlockMap map(4, 2);
  EXPECT_THROW(CacheContents(map, 0), ContractViolation);
}

}  // namespace
}  // namespace gcaching
