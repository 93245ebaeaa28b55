// Unit tests for core/block_map: partitions and their validation.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/block_map.hpp"
#include "core/trace.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace gcaching {
namespace {

TEST(UniformBlockMap, BasicGeometry) {
  UniformBlockMap map(12, 4);
  EXPECT_EQ(map.num_items(), 12u);
  EXPECT_EQ(map.num_blocks(), 3u);
  EXPECT_EQ(map.max_block_size(), 4u);
}

TEST(UniformBlockMap, BlockShiftOnlyForPowersOfTwoThatFitAShift) {
  constexpr std::size_t k31 = std::size_t{1} << 31;
  EXPECT_EQ(UniformBlockMap(100, 1).block_shift(), 0u);
  EXPECT_EQ(UniformBlockMap(100, 16).block_shift(), 4u);
  EXPECT_EQ(UniformBlockMap(100, k31).block_shift(), 31u);
  for (const std::size_t b : {std::size_t{3}, std::size_t{1000}, k31 - 1,
                              k31 + 1, 2 * k31, 4 * k31})
    EXPECT_FALSE(UniformBlockMap(100, b).block_shift().has_value())
        << "B = " << b;
}

TEST(UniformBlockMap, BlockOf) {
  UniformBlockMap map(12, 4);
  EXPECT_EQ(map.block_of(0), 0u);
  EXPECT_EQ(map.block_of(3), 0u);
  EXPECT_EQ(map.block_of(4), 1u);
  EXPECT_EQ(map.block_of(11), 2u);
}

TEST(UniformBlockMap, ItemsOfAreAscendingAndConsistent) {
  UniformBlockMap map(12, 4);
  const auto items = map.items_of(1);
  ASSERT_EQ(items.size(), 4u);
  for (std::size_t j = 0; j < items.size(); ++j) {
    EXPECT_EQ(items[j], 4 + j);
    EXPECT_EQ(map.block_of(items[j]), 1u);
  }
}

TEST(UniformBlockMap, RaggedLastBlock) {
  UniformBlockMap map(10, 4);
  EXPECT_EQ(map.num_blocks(), 3u);
  EXPECT_EQ(map.block_size(2), 2u);
  EXPECT_EQ(map.items_of(2)[0], 8u);
}

TEST(UniformBlockMap, SingletonBlocksAreTraditionalCaching) {
  auto map = make_singleton_blocks(5);
  EXPECT_EQ(map->num_blocks(), 5u);
  EXPECT_EQ(map->max_block_size(), 1u);
  for (ItemId it = 0; it < 5; ++it) EXPECT_EQ(map->block_of(it), it);
}

TEST(UniformBlockMap, OutOfRangeThrows) {
  UniformBlockMap map(8, 4);
  EXPECT_THROW(map.block_of(8), ContractViolation);
  EXPECT_THROW(map.items_of(2), ContractViolation);
}

TEST(UniformBlockMap, DegenerateInputsThrow) {
  EXPECT_THROW(UniformBlockMap(0, 4), ContractViolation);
  EXPECT_THROW(UniformBlockMap(4, 0), ContractViolation);
}

/// (n, B) pairs for the identity-table cases: B = 1, and B = 3 and 16 with
/// a ragged last block (100 = 33 * 3 + 1 = 6 * 16 + 4).
constexpr std::pair<std::size_t, std::size_t> kTableGeometries[] = {
    {37, 1}, {100, 3}, {100, 16}};

/// items_of(j) is exactly [jB, min((j+1)B, n)) for every block, and
/// block_size(j) is its length.
void expect_identity_items(const UniformBlockMap& map) {
  const std::size_t n = map.num_items();
  const std::size_t b = map.max_block_size();
  for (BlockId j = 0; j < map.num_blocks(); ++j) {
    const auto items = map.items_of(j);
    std::vector<ItemId> expected(std::min((j + 1) * b, n) - j * b);
    std::iota(expected.begin(), expected.end(), static_cast<ItemId>(j * b));
    ASSERT_EQ(std::vector<ItemId>(items.begin(), items.end()), expected)
        << "n " << n << " B " << b << " block " << j;
    EXPECT_EQ(map.block_size(j), expected.size());
  }
}

TEST(UniformBlockMap, LazyTableHoldsEachBlocksItems) {
  for (const auto& [n, b] : kTableGeometries) {
    const UniformBlockMap map(n, b);
    // Sizes first: they are arithmetic and must agree before any table.
    EXPECT_EQ(map.block_size(static_cast<BlockId>(map.num_blocks() - 1)),
              n - (map.num_blocks() - 1) * b);
    expect_identity_items(map);
    // One table: every block's span lies in the one block 0 starts.
    const ItemId* base = map.items_of(0).data();
    for (BlockId j = 0; j < map.num_blocks(); ++j)
      EXPECT_EQ(map.items_of(j).data(), base + j * b);
  }
}

TEST(UniformBlockMap, BorrowedLongerTableHoldsEachBlocksItems) {
  for (const auto& [n, b] : kTableGeometries) {
    auto table = std::make_shared<std::vector<ItemId>>(n + 29);
    std::iota(table->begin(), table->end(), ItemId{0});
    const UniformBlockMap map(n, b, table);
    expect_identity_items(map);
    for (BlockId j = 0; j < map.num_blocks(); ++j)
      EXPECT_EQ(map.items_of(j).data(), table->data() + j * b);
  }
}

TEST(UniformBlockMap, BorrowedTableMustCoverTheUniverse) {
  auto shorter = std::make_shared<std::vector<ItemId>>(9);
  std::iota(shorter->begin(), shorter->end(), ItemId{0});
  EXPECT_THROW(UniformBlockMap(10, 4, shorter), ContractViolation);
  EXPECT_THROW(UniformBlockMap(10, 4, nullptr), ContractViolation);
  if (kHotChecksEnabled) {
    auto shifted = std::make_shared<std::vector<ItemId>>(10);
    std::iota(shifted->begin(), shifted->end(), ItemId{1});
    EXPECT_THROW(UniformBlockMap(10, 4, shifted), ContractViolation);
  }
}

// Readers of one shared map (a sweep's pool threads) may make the first
// items_of calls together; each must see the one complete table. Run under
// ThreadSanitizer by the -L gcached CI job.
TEST(UniformBlockMap, ConcurrentFirstReadsSeeOneCompleteTable) {
  constexpr std::size_t kThreads = 4;
  for (const auto& [n, b] : kTableGeometries) {
    for (int round = 0; round < 20; ++round) {
      const UniformBlockMap map(n, b);
      std::atomic<std::size_t> ready{0};
      std::vector<const ItemId*> bases(kThreads, nullptr);
      std::vector<int> wrong(kThreads, 0);
      std::vector<std::thread> threads;
      for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
          ready.fetch_add(1);
          while (ready.load() < kThreads) std::this_thread::yield();
          // Start at a different block per thread, so the first call races.
          for (std::size_t k = 0; k < map.num_blocks(); ++k) {
            const auto j = static_cast<BlockId>((k + t) % map.num_blocks());
            const auto items = map.items_of(j);
            if (k == 0) bases[t] = items.data() - std::size_t{j} * b;
            for (std::size_t p = 0; p < items.size(); ++p)
              wrong[t] += items[p] != j * b + p;
            wrong[t] += items.size() != std::min((j + 1) * b, n) - j * b;
          }
        });
      }
      for (std::thread& th : threads) th.join();
      for (std::size_t t = 0; t < kThreads; ++t) {
        EXPECT_EQ(wrong[t], 0) << "thread " << t;
        EXPECT_EQ(bases[t], map.items_of(0).data()) << "thread " << t;
      }
      expect_identity_items(map);
    }
  }
}

TEST(ExplicitBlockMap, BasicPartition) {
  ExplicitBlockMap map({{0, 2}, {1}, {3, 4, 5}});
  EXPECT_EQ(map.num_items(), 6u);
  EXPECT_EQ(map.num_blocks(), 3u);
  EXPECT_EQ(map.max_block_size(), 3u);
  EXPECT_EQ(map.block_of(0), 0u);
  EXPECT_EQ(map.block_of(2), 0u);
  EXPECT_EQ(map.block_of(1), 1u);
  EXPECT_EQ(map.block_of(5), 2u);
}

TEST(ExplicitBlockMap, ItemsAreSortedWithinBlock) {
  ExplicitBlockMap map({{2, 0}, {1}});
  const auto items = map.items_of(0);
  EXPECT_EQ(items[0], 0u);
  EXPECT_EQ(items[1], 2u);
}

TEST(ExplicitBlockMap, RejectsOverlap) {
  EXPECT_THROW(ExplicitBlockMap({{0, 1}, {1, 2}}), ContractViolation);
}

TEST(ExplicitBlockMap, RejectsDuplicateWithinBlock) {
  EXPECT_THROW(ExplicitBlockMap({{0, 0}, {1}}), ContractViolation);
}

TEST(ExplicitBlockMap, RejectsGapsInUniverse) {
  // ids {0, 2}: id 1 missing => not dense.
  EXPECT_THROW(ExplicitBlockMap({{0}, {2}}), ContractViolation);
}

TEST(ExplicitBlockMap, RejectsEmptyBlock) {
  EXPECT_THROW(ExplicitBlockMap({{0}, {}}), ContractViolation);
}

TEST(ExplicitBlockMap, RejectsEmptyPartition) {
  EXPECT_THROW(ExplicitBlockMap({}), ContractViolation);
}

TEST(BlockMapProperty, EveryItemInItsOwnBlocksItemList) {
  UniformBlockMap uni(37, 5);
  for (ItemId it = 0; it < 37; ++it) {
    const auto items = uni.items_of(uni.block_of(it));
    bool found = false;
    for (ItemId member : items) found |= (member == it);
    EXPECT_TRUE(found) << "item " << it;
  }
}

TEST(BlockMapProperty, BlockSizesNeverExceedMax) {
  ExplicitBlockMap map({{0, 1, 2}, {3}, {4, 5}});
  for (BlockId b = 0; b < map.num_blocks(); ++b)
    EXPECT_LE(map.block_size(b), map.max_block_size());
}

/// A seeded random trace over `map`'s universe that also references the
/// last item (the one a rounding slip in a bulk divide would misplace).
Trace random_trace(const BlockMap& map, std::uint64_t seed) {
  SplitMix64 rng(seed);
  std::vector<ItemId> acc;
  for (int i = 0; i < 5000; ++i)
    acc.push_back(static_cast<ItemId>(rng.below(map.num_items())));
  acc.push_back(static_cast<ItemId>(map.num_items() - 1));
  acc.push_back(0);
  return Trace(std::move(acc));
}

/// Bulk ids, per-item block_of and an independent `expected` must agree.
template <typename Expected>
void expect_bulk_matches_per_item(const BlockMap& map, std::uint64_t seed,
                                  Expected expected) {
  const Trace trace = random_trace(map, seed);
  const BlockIdVector ids = compute_block_ids(map, trace);
  ASSERT_EQ(ids.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    ASSERT_EQ(ids[i], map.block_of(trace[i])) << "access " << i;
    ASSERT_EQ(ids[i], expected(trace[i])) << "access " << i;
  }
  EXPECT_TRUE(compute_block_ids(map, Trace{}).empty());
}

TEST(BlockMapProperty, BulkBlockIdsMatchPerItemBlockOf) {
  // B = 3 leaves a ragged last block of one item (999). The rest cover both
  // divisions: a shift for B = 2^s with s <= 31, the reciprocal for every
  // other B, on either side of 2^31 and 2^32 (B >= 2^32 puts the whole
  // 32-bit universe in block 0), over universes up to 2^32 items (the item
  // table is built only on items_of, so none is allocated here).
  constexpr std::uint64_t k31 = std::uint64_t{1} << 31;
  constexpr std::uint64_t k32 = std::uint64_t{1} << 32;
  for (const auto& [n, b] : {std::pair<std::size_t, std::uint64_t>{1000, 1},
                             {1000, 3}, {4096, 16}, {1001, 2}, {1000, 7},
                             {k32, 17}, {k32 - 3, 64}, {k32, 65537},
                             {k32, k31 - 1}, {k32, k31}, {k32 - 1, k31},
                             {k32, k31 + 1}, {k32, k32 - 1}, {k32, k32},
                             {k32 - 1, k32}, {k32, k32 + 1}}) {
    SCOPED_TRACE("n = " + std::to_string(n) + ", B = " + std::to_string(b));
    expect_bulk_matches_per_item(
        UniformBlockMap(n, b), b, [b](ItemId it) {
          return static_cast<BlockId>(std::uint64_t{it} / b);
        });
  }
  const std::vector<BlockId> owner = {0, 1, 2, 2, 0, 2, 2, 2, 3, 0};
  expect_bulk_matches_per_item(
      ExplicitBlockMap({{4, 0, 9}, {1}, {2, 3, 5, 6, 7}, {8}}), 4,
      [&owner](ItemId it) { return owner[it]; });
}

TEST(BlockMapProperty, BulkBlockIdsRejectAnItemOutsideTheMap) {
  const UniformBlockMap uniform(100, 3);
  const ExplicitBlockMap explicit_map({{0, 2}, {1}, {3}});
  for (const BlockMap* map :
       {static_cast<const BlockMap*>(&uniform),
        static_cast<const BlockMap*>(&explicit_map)}) {
    const auto n = static_cast<ItemId>(map->num_items());
    try {
      (void)compute_block_ids(*map, Trace(std::vector<ItemId>{0, n, 1}));
      ADD_FAILURE() << "an item outside the map did not throw";
    } catch (const ContractViolation& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "trace references item outside the map"),
                std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace gcaching
