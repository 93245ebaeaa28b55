// Item-Block Layered Partitioning (IBLP) — the paper's policy (Section 5).
//
// IBLP splits a cache of k = i + b items into
//   * an *item layer* of size i: serves every access, loads only requested
//     items, evicts item-granularity LRU;
//   * a *block layer* of size b: serves only accesses that miss in the item
//     layer, loads and evicts whole blocks, block-granularity LRU.
//
// Three deliberate design choices from Section 5.1, each with an ablation
// variant here:
//   1. Ordering: the item layer is in *front*, so hot items do not reorder
//      the block layer's LRU list (`IblpBlockFirst` flips this).
//   2. Inclusion: the layers are neither inclusive nor exclusive — an item
//      may occupy a slot in both (`IblpExclusive` deduplicates instead).
//   3. Partitioning: layer sizes are fixed inputs; the bound-optimal split
//      for a given comparator size h is computed in `bounds/partition.hpp`.
//
// Degenerate configurations are supported for sweep continuity: b = 0 is
// exactly an Item Cache (LRU), i = 0 exactly a Block Cache (LRU).
//
// Model-residency invariant maintained by every variant: an item is in the
// cache iff it occupies a slot in at least one layer.
#pragma once

#include <cstddef>
#include <memory>
#include <string>

#include "core/policy.hpp"
#include "policies/lru_list.hpp"

namespace gcaching {

/// Layer sizes for IBLP-family policies.
struct IblpConfig {
  std::size_t item_layer = 0;   ///< i: slots of the item partition
  std::size_t block_layer = 0;  ///< b: slots of the block partition

  std::size_t total() const noexcept { return item_layer + block_layer; }
};

/// Standard IBLP: item layer in front, non-inclusive layers.
class Iblp final : public ReplacementPolicy {
 public:
  explicit Iblp(IblpConfig cfg) : cfg_(cfg) {}

  /// Promoting a block-layer hit can evict an item-layer victim *during the
  /// hit* (insert_into_item_layer). The fast engine must then charge
  /// eviction stats per miss transaction like the verifying engine does.
  static constexpr bool kEvictsOutsideMiss = true;

  void attach(const BlockMap& map, CacheContents& cache) override;
  void on_hit(ItemId item) override;
  void on_miss(ItemId item) override;
  void reset() override;
  std::string name() const override;

  const IblpConfig& config() const noexcept { return cfg_; }
  std::size_t block_layer_used() const noexcept { return b_used_; }
  std::size_t item_layer_used() const { return item_lru_->size(); }
  bool in_item_layer(ItemId item) const { return item_lru_->contains(item); }
  bool in_block_layer(BlockId block) const {
    return block_lru_->contains(block);
  }

 private:
  IblpConfig cfg_;
  std::unique_ptr<IndexedList> item_lru_;   // over items
  std::unique_ptr<IndexedList> block_lru_;  // over blocks
  std::size_t b_used_ = 0;

  void insert_into_item_layer(ItemId item);
  void evict_lru_block();
};

/// Ablation: exclusive layers — an item occupies a slot in exactly one
/// layer. Promotions uncover the item in the block layer (freeing its slot);
/// item-layer evictions demote back into block coverage when the block is
/// still resident and has room, otherwise leave the cache.
class IblpExclusive final : public ReplacementPolicy {
 public:
  explicit IblpExclusive(IblpConfig cfg) : cfg_(cfg) {}

  /// See Iblp::kEvictsOutsideMiss — hit-path promotions evict here too.
  static constexpr bool kEvictsOutsideMiss = true;

  void attach(const BlockMap& map, CacheContents& cache) override;
  void on_hit(ItemId item) override;
  void on_miss(ItemId item) override;
  void reset() override;
  std::string name() const override;

  std::size_t block_layer_used() const noexcept { return b_used_; }

 private:
  IblpConfig cfg_;
  std::unique_ptr<IndexedList> item_lru_;
  std::unique_ptr<IndexedList> block_lru_;
  std::vector<bool> covered_;  ///< item occupies a block-layer slot
  std::size_t b_used_ = 0;

  void insert_into_item_layer(ItemId item);
  void evict_lru_block();
  std::size_t uncovered_need(BlockId block) const;
};

/// Ablation: block layer in *front* (serves every access and reorders on
/// every touch), item layer behind it. Demonstrates the pollution problem
/// Section 5.1 warns about: blocks with one hot item pin themselves at the
/// block-layer MRU position.
class IblpBlockFirst final : public ReplacementPolicy {
 public:
  explicit IblpBlockFirst(IblpConfig cfg) : cfg_(cfg) {}

  void attach(const BlockMap& map, CacheContents& cache) override;
  void on_hit(ItemId item) override;
  void on_miss(ItemId item) override;
  void reset() override;
  std::string name() const override;

 private:
  IblpConfig cfg_;
  std::unique_ptr<IndexedList> item_lru_;
  std::unique_ptr<IndexedList> block_lru_;
  std::size_t b_used_ = 0;

  void insert_into_item_layer(ItemId item);
  void evict_lru_block();
};

}  // namespace gcaching
