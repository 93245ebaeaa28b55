// Item Cache running Segmented LRU (two segments).
//
// Probationary + protected segments: first touch inserts into probation,
// a hit promotes to the protected segment, protected overflow demotes back
// to probation's MRU end. A scan-resistant LRU refinement used in real
// storage caches; included to exercise the framework with a policy whose
// eviction choice depends on richer state than a single list.
#pragma once

#include <memory>
#include <string>

#include "core/policy.hpp"
#include "policies/lru_list.hpp"

namespace gcaching {

class ItemSlru final : public ReplacementPolicy {
 public:
  /// Loads only the requested item, never a sibling (see simulate_fast).
  static constexpr bool kRequestedLoadsOnly = true;

  /// `protected_fraction` of the capacity is reserved for the protected
  /// segment (clamped to [0, capacity-1] slots so probation is never empty).
  explicit ItemSlru(double protected_fraction = 0.5);

  void attach(const BlockMap& map, CacheContents& cache) override;
  void on_hit(ItemId item) override;
  void on_miss(ItemId item) override;
  void reset() override;
  std::string name() const override;

  std::size_t protected_capacity() const noexcept { return protected_cap_; }

 private:
  double protected_fraction_;
  std::size_t protected_cap_ = 0;
  std::unique_ptr<IndexedList> probation_;
  std::unique_ptr<IndexedList> protected_;
};

}  // namespace gcaching
