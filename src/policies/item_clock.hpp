// Item Cache running CLOCK (second-chance).
//
// The canonical low-overhead LRU approximation used by real OSes and SRAM
// caches. Included so the empirical harness can show that everything proved
// for Item Caches (Theorem 2) holds for practical LRU approximations too.
#pragma once

#include <limits>
#include <string>
#include <vector>

#include "core/policy.hpp"

namespace gcaching {

class ItemClock final : public ReplacementPolicy {
 public:
  /// Loads only the requested item, never a sibling (see simulate_fast).
  static constexpr bool kRequestedLoadsOnly = true;

  ItemClock() = default;

  void attach(const BlockMap& map, CacheContents& cache) override;
  void on_hit(ItemId item) override;
  void on_miss(ItemId item) override;
  void reset() override;
  std::string name() const override { return "item-clock"; }

 private:
  static constexpr std::uint32_t kNoSlot =
      std::numeric_limits<std::uint32_t>::max();

  std::vector<ItemId> slots_;        // ring buffer of resident items
  std::vector<bool> ref_;           // reference bit per slot
  std::vector<std::uint32_t> slot_of_;  // item -> slot
  std::size_t hand_ = 0;
  std::size_t used_ = 0;

  std::size_t advance_hand();
};

}  // namespace gcaching
