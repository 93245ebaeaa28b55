// The a-threshold policy family (Section 4.4).
//
// Theorem 4 parametrizes deterministic policies by `a`: the number of
// distinct consecutive accesses to a block the policy waits for before
// loading the entire block. `AThreshold` makes that parameter executable:
//
//   * item-granularity LRU eviction;
//   * on a miss, load the requested item; once a block has accumulated `a`
//     distinct item accesses during its current residency episode, load the
//     remainder of the block in the same miss.
//
// a = 1 loads whole blocks immediately (but, unlike a Block Cache, still
// evicts items individually — the configuration Section 4.4 recommends for
// large caches); a >= B never side-loads (a plain Item Cache). Sweeping `a`
// empirically traces out the Theorem 4 bound's two regimes.
//
// Data-oriented layout: block geometry goes through a FlatBlockIndex (no
// virtual BlockMap calls on the hot path), the distinct-access flags are a
// byte array, and the per-access callbacks are defined inline so
// `simulate_fast` folds them into its loop.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/policy.hpp"
#include "policies/block_geometry.hpp"
#include "policies/lru_list.hpp"
#include "util/contracts.hpp"

namespace gcaching {

class AThreshold final : public ReplacementPolicy {
 public:
  /// `a` must be >= 1.
  explicit AThreshold(unsigned a);

  void attach(const BlockMap& map, CacheContents& cache) override;
  void reset() override;
  std::string name() const override;

  unsigned a() const noexcept { return a_; }

  void on_hit(ItemId item) override {
    lru_.move_to_front(item);
    note_access(item);
  }

  void on_miss(ItemId item) override {
    const BlockId block = geom_.block_of(item);
    // Plain LRU eviction for the requested load (so a >= B degenerates to
    // exactly ItemLru); the own-block protection only applies to the
    // whole-block load below.
    if (cache().full()) {
      const ItemId victim = lru_.pop_back();
      cache().evict(victim);
      note_eviction(victim);
    }
    cache().load(item);
    lru_.push_front(item);
    ++residents_[block];
    note_access(item);

    if (distinct_in_episode_[block] >= a_) {
      load_rest_of_block(block);
      lru_.move_to_front(item);  // the requested item stays most recent
    }
  }

 private:
  void note_access(ItemId item) {
    if (counted_[item] != 0) return;
    counted_[item] = 1;
    ++distinct_in_episode_[geom_.block_of(item)];
  }

  void note_eviction(ItemId item) {
    const BlockId block = geom_.block_of(item);
    GC_HOT_CHECK(residents_[block] > 0, "resident count underflow");
    if (--residents_[block] == 0) {
      // Episode over: the block left the cache entirely; forget its history
      // so the next encounter must re-earn the whole-block load.
      distinct_in_episode_[block] = 0;
      for (const ItemId member : geom_.items_of(block)) counted_[member] = 0;
    }
  }

  void evict_lru_avoiding(BlockId protect) {
    // Scan from the LRU end for a victim outside the protected block; fall
    // back to the plain LRU victim if the cache holds only protected items.
    ItemId victim = kInvalidItem;
    lru_.for_each_from_lru([&](ItemId candidate) {
      if (geom_.block_of(candidate) != protect) {
        victim = candidate;
        return false;  // stop scan
      }
      return true;
    });
    if (victim == kInvalidItem) victim = lru_.back();
    lru_.remove(victim);
    cache().evict(victim);
    note_eviction(victim);
  }

  void load_rest_of_block(BlockId block) {
    for (const ItemId sibling : geom_.items_of(block)) {
      if (cache().contains(sibling)) continue;
      if (cache().full()) evict_lru_avoiding(block);
      if (cache().full()) break;  // only this block's items remain resident
      cache().load(sibling);
      lru_.push_front(sibling);
      ++residents_[block];
    }
  }

  unsigned a_;
  FlatBlockIndex geom_;
  IndexedList lru_{0};  // over items
  std::vector<std::uint32_t> distinct_in_episode_;  // per block
  std::vector<std::uint32_t> residents_;            // per block
  std::vector<std::uint8_t> counted_;  // item contributed to its episode
};

}  // namespace gcaching
