// Item Cache running ARC (Adaptive Replacement Cache, Megiddo & Modha,
// FAST'03).
//
// ARC balances recency (T1) against frequency (T2) using ghost lists (B1,
// B2) of recently evicted ids and a self-tuning target p for T1's size.
// Included as the strongest practical *item-granularity* baseline: like
// every Item Cache it is subject to the Theorem 2 lower bound — adaptivity
// buys nothing against spatial locality, which the empirical harness makes
// visible.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/policy.hpp"
#include "policies/lru_list.hpp"

namespace gcaching {

class ItemArc final : public ReplacementPolicy {
 public:
  /// Loads only the requested item, never a sibling (see simulate_fast).
  static constexpr bool kRequestedLoadsOnly = true;

  ItemArc() = default;

  void attach(const BlockMap& map, CacheContents& cache) override;
  void on_hit(ItemId item) override;
  void on_miss(ItemId item) override;
  void reset() override;
  std::string name() const override { return "item-arc"; }

  /// Current adaptation target for |T1| (for tests/inspection).
  double target_t1() const noexcept { return p_; }
  std::size_t t1_size() const { return t1_->size(); }
  std::size_t t2_size() const { return t2_->size(); }
  std::size_t b1_size() const { return b1_->size(); }
  std::size_t b2_size() const { return b2_->size(); }

 private:
  enum class Where : std::uint8_t { kNone, kT1, kT2, kB1, kB2 };

  std::unique_ptr<IndexedList> t1_, t2_, b1_, b2_;
  std::vector<Where> where_;
  double p_ = 0.0;
  std::size_t c_ = 0;

  void replace(bool hit_in_b2);
  void ghost_trim(IndexedList& ghost);
};

}  // namespace gcaching
