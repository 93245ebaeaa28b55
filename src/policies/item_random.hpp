// Item Cache evicting a uniformly random resident item.
//
// The memoryless baseline. Deterministic given its seed, so sweeps remain
// reproducible.
#pragma once

#include <string>
#include <vector>

#include "core/policy.hpp"
#include "util/rng.hpp"

namespace gcaching {

class ItemRandom final : public ReplacementPolicy {
 public:
  /// Loads only the requested item, never a sibling (see simulate_fast).
  static constexpr bool kRequestedLoadsOnly = true;

  explicit ItemRandom(std::uint64_t seed = 1) : seed_(seed), rng_(seed) {}

  void attach(const BlockMap& map, CacheContents& cache) override;
  void on_hit(ItemId item) override;
  void on_miss(ItemId item) override;
  void reset() override;
  std::string name() const override { return "item-random"; }

 private:
  std::uint64_t seed_;
  SplitMix64 rng_;
  std::vector<ItemId> residents_;       // unordered pool of resident items
  std::vector<std::uint32_t> slot_of_;  // item -> index in residents_

  void pool_add(ItemId item);
  void pool_remove(ItemId item);
};

}  // namespace gcaching
