// Flat, virtual-call-free mirror of a BlockMap's geometry.
//
// The block-aware policies (footprint, athreshold, gcm, the marking
// family) consult block membership on every access: which block an item
// belongs to, its position inside the block, and the block's member list.
// Going through the virtual BlockMap interface for that costs an indirect
// call per query — on the simulation hot path, per access. FlatBlockIndex
// resolves every query without a virtual call, in one of two modes:
//
//   * Uniform power-of-two geometry (a UniformBlockMap with a
//     `block_shift()`, B = 2^s with s <= 31 — every synthetic and
//     address-trace workload): block and position are a shift and a mask,
//     and member lists alias the map's identity table. The map alone decides
//     which B has a shift; the index takes s from it. The index stores
//     nothing per item — this matters on large universes, where a
//     materialized item->block array would add a cold cache miss per query
//     that the arithmetic avoids.
//   * Anything else (an explicit partition, or a B with no shift, B >= 2^32
//     included): dense snapshot arrays built once at attach time, an
//     indexed load per query.
//
// Block maps are immutable for the lifetime of a policy attachment and the
// policy's attach() keeps the map alive, so neither the aliased spans nor
// the snapshot can go stale.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/block_map.hpp"
#include "core/types.hpp"
#include "util/contracts.hpp"

namespace gcaching {

class FlatBlockIndex {
 public:
  FlatBlockIndex() = default;

  /// Rebuilds the index from `map`. Called from a policy's attach(); `map`
  /// must outlive the index (policies hold the attachment reference).
  void build(const BlockMap& map) {
    const std::size_t num_items = map.num_items();
    const std::size_t num_blocks = map.num_blocks();
    num_items_ = num_items;
    const auto* uniform = dynamic_cast<const UniformBlockMap*>(&map);
    if (const std::optional<unsigned> shift =
            uniform != nullptr ? uniform->block_shift() : std::nullopt) {
      shift_ = *shift;
      mask_ = (std::uint32_t{1} << shift_) - 1;
      // A UniformBlockMap's item lists alias one identity table: the span
      // for block 0 starts a table of at least n ids, owned by the map (and
      // built by this first read) or borrowed (gcached's shard maps share
      // one), so every block is base_ + block * B.
      base_ = map.items_of(0).data();
      block_of_.clear();
      pos_of_.clear();
      items_.clear();
      begin_.clear();
      return;
    }
    base_ = nullptr;
    block_of_.resize(num_items);
    pos_of_.resize(num_items);
    items_.clear();
    items_.reserve(num_items);
    begin_.assign(num_blocks + 1, 0);
    for (std::size_t j = 0; j < num_blocks; ++j) {
      const BlockId block = static_cast<BlockId>(j);
      begin_[j] = static_cast<std::uint32_t>(items_.size());
      const std::span<const ItemId> members = map.items_of(block);
      for (std::size_t p = 0; p < members.size(); ++p) {
        const ItemId item = members[p];
        block_of_[item] = block;
        pos_of_[item] = static_cast<std::uint32_t>(p);
        items_.push_back(item);
      }
    }
    begin_[num_blocks] = static_cast<std::uint32_t>(items_.size());
    GC_ENSURE(items_.size() == num_items,
              "block map did not partition the item universe");
  }

  BlockId block_of(ItemId item) const {
    return base_ != nullptr ? static_cast<BlockId>(item >> shift_)
                            : block_of_[item];
  }

  /// Index of `item` within its block's member list (ascending ids).
  std::uint32_t position_of(ItemId item) const {
    return base_ != nullptr ? (item & mask_) : pos_of_[item];
  }

  /// Bitmask with the item's block position set; positions beyond 63 are
  /// the caller's responsibility (footprint REQUIREs max block size <= 64).
  std::uint64_t bit_of(ItemId item) const {
    return std::uint64_t{1} << position_of(item);
  }

  std::span<const ItemId> items_of(BlockId block) const {
    if (base_ != nullptr) {
      const std::size_t lo = std::size_t{block} << shift_;
      const std::size_t width = std::size_t{mask_} + 1;
      return std::span<const ItemId>(base_ + lo,
                                     std::min(width, num_items_ - lo));
    }
    return std::span<const ItemId>(items_.data() + begin_[block],
                                   begin_[block + 1] - begin_[block]);
  }

  std::size_t block_size(BlockId block) const { return items_of(block).size(); }

 private:
  // Shift mode (the map's block_shift()): base_ aliases its identity table.
  const ItemId* base_ = nullptr;
  std::uint32_t shift_ = 0;
  std::uint32_t mask_ = 0;
  std::size_t num_items_ = 0;

  // Snapshot mode (an explicit partition, or a B with no shift).
  std::vector<BlockId> block_of_;
  std::vector<std::uint32_t> pos_of_;
  std::vector<ItemId> items_;         // members flattened, block-major
  std::vector<std::uint32_t> begin_;  // per block: offset into items_
};

}  // namespace gcaching
