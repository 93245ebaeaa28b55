// Item-to-block partitions.
//
// A `BlockMap` is the static structure (iii) of Definition 1: a partition of
// the item universe into disjoint blocks of at most `max_block_size()` items.
// Two implementations:
//   * `UniformBlockMap`  — items [jB, (j+1)B) form block j; the common case
//     for address-space granularity boundaries (cache lines in a DRAM row).
//   * `ExplicitBlockMap` — arbitrary partition, needed by the NP-completeness
//     reduction (active sets of varying size) and by irregular workloads.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "core/types.hpp"
#include "util/contracts.hpp"

namespace gcaching {

/// Immutable partition of items into blocks. Thread-safe for concurrent
/// reads after construction.
class BlockMap {
 public:
  virtual ~BlockMap() = default;

  /// Number of items in the universe (ids are dense 0..num_items()-1).
  virtual std::size_t num_items() const noexcept = 0;

  /// Number of blocks (ids are dense 0..num_blocks()-1).
  virtual std::size_t num_blocks() const noexcept = 0;

  /// The block containing `item`. Precondition: item < num_items().
  virtual BlockId block_of(ItemId item) const = 0;

  /// Bulk block_of: writes the block of items[i] to out[i], one virtual
  /// call per trace instead of one per access. Validates in the same loop
  /// (through the largest item) and throws ContractViolation "trace
  /// references item outside the map" when any item is out of range, after
  /// which the contents of `out` are unspecified.
  virtual void block_ids_of(std::span<const ItemId> items,
                            BlockId* out) const = 0;

  /// The items of `block`, in ascending id order.
  /// Precondition: block < num_blocks().
  virtual std::span<const ItemId> items_of(BlockId block) const = 0;

  /// The model parameter B: an upper bound on every block's size.
  virtual std::size_t max_block_size() const noexcept = 0;

  /// Size of a specific block (<= max_block_size()). A uniform map answers
  /// without reading its item lists. Precondition: block < num_blocks().
  virtual std::size_t block_size(BlockId block) const {
    return items_of(block).size();
  }
};

/// Block j contains items [j*B, min((j+1)*B, n)). O(1) lookups; block_of,
/// block_ids_of and block_size are arithmetic. The map decides once, at
/// construction, how to divide by B:
///   * B = 2^s with s <= 31 (B = 1 is s = 0): item / B is item >> s, which
///     the bulk loop of block_ids_of vectorizes. `block_shift()` hands s to
///     other flat views of the geometry (FlatBlockIndex), so this is the one
///     place that tells a power of two.
///   * every other B, including B >= 2^32 (a 32-bit id shifted by 32 would
///     be undefined): a multiply-high by a reciprocal fixed at construction
///     (Lemire, Kaser and Kurz's direct division), exact for every 32-bit
///     item and every B >= 2.
///
/// `items_of` returns spans into one identity table 0..n-1, shared across
/// blocks, so `items_of(0).data()` starts a table of at least n ids. The
/// table is either borrowed from the caller (the second constructor), or
/// owned and built by the first `items_of` call: a map whose item lists are
/// never read never writes it. The build is race-free, so concurrent readers
/// of one map may make the first call together; every later call costs one
/// acquire load.
class UniformBlockMap final : public BlockMap {
 public:
  /// Partition `num_items` items into blocks of `block_size`; the last block
  /// may be smaller when block_size does not divide num_items.
  UniformBlockMap(std::size_t num_items, std::size_t block_size);

  /// The same partition, whose item lists alias `identity`, a table with at
  /// least `num_items` entries and identity[i] == i (checked in checking
  /// builds). Maps over prefixes of one universe can thus share one table.
  UniformBlockMap(std::size_t num_items, std::size_t block_size,
                  std::shared_ptr<const std::vector<ItemId>> identity);

  std::size_t num_items() const noexcept override { return num_items_; }
  std::size_t num_blocks() const noexcept override { return num_blocks_; }
  BlockId block_of(ItemId item) const override;
  void block_ids_of(std::span<const ItemId> items,
                    BlockId* out) const override;
  std::size_t max_block_size() const noexcept override { return block_size_; }

  /// s when B = 2^s with s <= 31, so that block_of(item) == item >> s;
  /// empty for every other B.
  std::optional<unsigned> block_shift() const noexcept { return shift_; }

  std::span<const ItemId> items_of(BlockId block) const override {
    GC_REQUIRE(block < num_blocks_, "block id out of range");
    const ItemId* items = items_.load(std::memory_order_acquire);
    if (items == nullptr) [[unlikely]]
      items = build_items();
    const std::size_t first = std::size_t{block} * block_size_;
    return {items + first, std::min(block_size_, num_items_ - first)};
  }

  std::size_t block_size(BlockId block) const override {
    GC_REQUIRE(block < num_blocks_, "block id out of range");
    return std::min(block_size_, num_items_ - std::size_t{block} * block_size_);
  }

 private:
  /// Builds the owned table on the first items_of call and returns it.
  const ItemId* build_items() const;

  std::size_t num_items_;
  std::size_t block_size_;
  std::size_t num_blocks_;
  std::optional<unsigned> shift_;  // s for B = 2^s, s <= 31
  std::uint64_t reciprocal_;       // ceil(2^64 / B) when shift_ is empty
  /// identity_->data() once the table exists; null until the first
  /// items_of of a map that owns its table. Published with release order
  /// after identity_ is written, so a reader that sees it non-null may
  /// read the table without the mutex.
  mutable std::atomic<const ItemId*> items_{nullptr};
  mutable std::mutex build_mutex_;  // serializes the one build
  mutable std::shared_ptr<const std::vector<ItemId>> identity_;
};

/// Arbitrary partition given as an explicit list of blocks.
class ExplicitBlockMap final : public BlockMap {
 public:
  /// `blocks[j]` lists the items of block j. The blocks must be non-empty,
  /// disjoint, and together cover a dense universe 0..n-1 (validated).
  explicit ExplicitBlockMap(std::vector<std::vector<ItemId>> blocks);

  std::size_t num_items() const noexcept override { return item_to_block_.size(); }
  std::size_t num_blocks() const noexcept override { return blocks_.size(); }
  BlockId block_of(ItemId item) const override;
  void block_ids_of(std::span<const ItemId> items,
                    BlockId* out) const override;
  std::span<const ItemId> items_of(BlockId block) const override;
  std::size_t max_block_size() const noexcept override { return max_block_size_; }

 private:
  std::vector<std::vector<ItemId>> blocks_;
  std::vector<BlockId> item_to_block_;
  std::size_t max_block_size_ = 0;
};

/// Convenience: a partition where every item is its own block — under which
/// GC caching is exactly the traditional caching model (Section 2).
std::shared_ptr<BlockMap> make_singleton_blocks(std::size_t num_items);

/// Convenience: shared uniform map.
std::shared_ptr<BlockMap> make_uniform_blocks(std::size_t num_items,
                                              std::size_t block_size);

}  // namespace gcaching
