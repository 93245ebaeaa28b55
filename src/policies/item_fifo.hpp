// Item Cache running FIFO.
//
// Evicts in insertion order regardless of hits. Included as a second
// traditional-cache baseline: FIFO is also a-competitive with a = B in the
// Theorem 4 parametrization (it never loads unrequested items), and its
// contrast with LRU isolates how much of the GC-caching penalty is about
// load granularity rather than recency quality.
#pragma once

#include <memory>
#include <string>

#include "core/policy.hpp"
#include "policies/lru_list.hpp"

namespace gcaching {

class ItemFifo final : public ReplacementPolicy {
 public:
  /// Loads only the requested item, never a sibling (see simulate_fast).
  static constexpr bool kRequestedLoadsOnly = true;

  ItemFifo() = default;

  void attach(const BlockMap& map, CacheContents& cache) override;
  void on_hit(ItemId item) override;
  void on_miss(ItemId item) override;
  void reset() override;
  std::string name() const override { return "item-fifo"; }

 private:
  std::unique_ptr<IndexedList> queue_;  // front = newest
};

}  // namespace gcaching
