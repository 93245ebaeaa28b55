// Item Cache running LRU — the paper's primary "traditional cache" baseline.
//
// An Item Cache (Section 2, "Baseline policies") loads only the requested
// item on a miss and evicts at item granularity. It exploits temporal
// locality well but gains nothing from spatial locality: by Theorem 2 its
// competitive ratio in GC caching is at least B(k-B+1)/(k-h+1).
#pragma once

#include <string>

#include "core/policy.hpp"
#include "policies/lru_list.hpp"

namespace gcaching {

class ItemLru final : public ReplacementPolicy {
 public:
  ItemLru() = default;

  /// Loads only the requested item, never a sibling (see simulate_fast).
  static constexpr bool kRequestedLoadsOnly = true;

  // Inline (with the callbacks below) so the fast engine's instantiation
  // sees the attachment: the compiler then knows cache() is the engine's
  // own CacheContents and keeps its members in registers across calls.
  void attach(const BlockMap& map, CacheContents& cache) override {
    set_attachment(map, cache);
    lru_ = std::make_unique<IndexedList>(map.num_items());
  }

  void reset() override {
    if (lru_) lru_->clear();
  }

  std::string name() const override { return "item-lru"; }

  // The per-access callbacks are defined here so `simulate_fast<ItemLru>`
  // inlines them into its loop; an out-of-line call per access costs more
  // than the callback body itself.
  void on_hit(ItemId item) override { lru_->move_to_front(item); }

  void on_miss(ItemId item) override {
    if (cache().full()) {
      const ItemId victim = lru_->pop_back();
      cache().evict(victim);
    }
    cache().load(item);
    lru_->push_front(item);
  }

  /// Recency order MRU->LRU (for tests).
  std::vector<ItemId> recency_order() const { return lru_->to_vector(); }

 private:
  std::unique_ptr<IndexedList> lru_;
};

}  // namespace gcaching
