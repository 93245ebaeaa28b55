// Footprint-predicting GC cache.
//
// The DRAM-cache designs the paper cites as motivation (Jevdjic et al.'s
// Footprint Cache, ISCA'13 / MICRO'14) load *the predicted useful subset*
// of a block instead of one item or the whole block. This policy brings
// that design into the GC model:
//
//   * per block, remember the *footprint* — the set of items actually
//     touched during the block's previous residency episode;
//   * on a miss to a block seen before, side-load its remembered footprint
//     (the requested item always loads); on a first-ever miss, fall back to
//     a configurable cold policy (whole block or single item);
//   * evict at item granularity (LRU), like IBLP's item layer.
//
// In Theorem 4 terms the policy's effective `a` adapts per block: 1 for
// blocks with stable dense footprints, ~B for blocks that keep changing —
// which is exactly what the paper's framework says a practical design
// should try to buy.
//
// Data-oriented layout: all block geometry goes through a FlatBlockIndex
// (no virtual BlockMap calls on the hot path — the old implementation's
// `position_bit` linearly scanned the member list per touch), and the
// per-access callbacks are defined inline so `simulate_fast` folds them
// into its loop.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/policy.hpp"
#include "policies/block_geometry.hpp"
#include "policies/lru_list.hpp"
#include "util/contracts.hpp"

namespace gcaching {

class FootprintCache final : public ReplacementPolicy {
 public:
  /// `cold_whole_block`: what to load for a block with no recorded history
  /// (true = whole block, the Footprint Cache default; false = item only).
  explicit FootprintCache(bool cold_whole_block = true)
      : cold_whole_block_(cold_whole_block) {}

  void attach(const BlockMap& map, CacheContents& cache) override;
  void reset() override;
  std::string name() const override;

  // The per-access callbacks are defined inline so `simulate_fast` folds
  // them into its loop.
  void on_hit(ItemId item) override {
    lru_.move_to_front(item);
    live_footprint_[geom_.block_of(item)] |= geom_.bit_of(item);
  }

  void on_miss(ItemId item) override {
    const BlockId block = geom_.block_of(item);
    const std::span<const ItemId> items = geom_.items_of(block);

    // Predicted subset for this episode.
    std::uint64_t predicted;
    if (has_history_[block] != 0) {
      predicted = footprint_[block];
    } else {
      predicted = cold_whole_block_
                      ? (items.size() == 64
                             ? ~std::uint64_t{0}
                             : (std::uint64_t{1} << items.size()) - 1)
                      : 0;
    }
    predicted |= geom_.bit_of(item);  // the request itself always loads

    // Load the requested item first, then the rest of the prediction.
    if (cache().full()) evict_one(block);
    cache().load(item);
    lru_.push_front(item);
    ++residents_[block];
    live_footprint_[block] |= geom_.bit_of(item);

    for (std::size_t j = 0; j < items.size(); ++j) {
      if ((predicted & (std::uint64_t{1} << j)) == 0) continue;
      const ItemId member = items[j];
      if (cache().contains(member)) continue;
      if (cache().full()) evict_one(block);
      if (cache().full()) break;  // only this block's items remain resident
      cache().load(member);
      lru_.push_front(member);
      ++residents_[block];
    }
    // Keep the requested item most recent.
    lru_.move_to_front(item);
  }

  /// Recorded footprint of `block` from its last completed residency
  /// episode (bitmask over the block's item positions); 0 if none.
  std::uint64_t recorded_footprint(BlockId block) const;

  /// Audit: recounts per-block residency from the ground-truth cache via
  /// the allocation-free visitor and compares with the policy's own
  /// `residents_` counters. O(num_items); meant for tests.
  bool residents_consistent() const;

 private:
  void evict_one(BlockId protect) {
    // Prefer a victim outside the block being served (avoids churn while
    // loading a footprint); fall back to the global LRU victim.
    ItemId victim = kInvalidItem;
    lru_.for_each_from_lru([&](ItemId candidate) {
      if (geom_.block_of(candidate) != protect) {
        victim = candidate;
        return false;
      }
      return true;
    });
    if (victim == kInvalidItem) victim = lru_.back();
    lru_.remove(victim);
    cache().evict(victim);
    // Episode bookkeeping: when the block empties, commit the touched set
    // as its footprint.
    const BlockId block = geom_.block_of(victim);
    GC_HOT_CHECK(residents_[block] > 0, "resident count underflow");
    if (--residents_[block] == 0) {
      footprint_[block] = live_footprint_[block];
      has_history_[block] = 1;
      live_footprint_[block] = 0;
    }
  }

  bool cold_whole_block_;
  FlatBlockIndex geom_;
  IndexedList lru_{0};                         // item recency
  std::vector<std::uint64_t> footprint_;       // per block: last episode
  std::vector<std::uint64_t> live_footprint_;  // per block: current episode
  std::vector<std::uint32_t> residents_;       // per block
  std::vector<std::uint8_t> has_history_;      // block ever completed
};

}  // namespace gcaching
