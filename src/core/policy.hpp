// The online replacement-policy interface.
//
// Policies are reactive: the simulator classifies each access as hit or miss
// against the ground-truth `CacheContents`, then invokes the corresponding
// callback. On a miss, the policy must bring the requested item in (possibly
// side-loading more of its block) using only `CacheContents::load/evict`,
// which enforce the model's rules.
//
// Offline policies (e.g. Belady) additionally receive the whole trace via
// `prepare()` before simulation starts.
//
// Opt-in fast-engine traits. The template engines in core/simulator.hpp
// detect these `static constexpr bool` members structurally (no virtual
// surface; the verifying engine ignores them). Each is a *claim* about the
// policy's behaviour, checked by GC_HOT_REQUIREs in the verifying build; a
// wrong claim changes the fast engine's stats, which
// FastSimDifferential.BitIdenticalStatsAcrossSeedsAndCapacities compares
// against the verifying engine for every registered policy:
//
//   * kRequestedLoadsOnly — on_miss loads only the requested item, so every
//     hit is statically temporal and the hit path skips the flag update.
//   * kEvictsOutsideMiss — the policy evicts during hits, so eviction stats
//     must be snapshotted per miss transaction.
#pragma once

#include <string>

#include "core/block_map.hpp"
#include "core/cache_contents.hpp"
#include "core/trace.hpp"
#include "core/types.hpp"

namespace gcaching {

class ReplacementPolicy {
 public:
  virtual ~ReplacementPolicy() = default;

  ReplacementPolicy() = default;
  ReplacementPolicy(const ReplacementPolicy&) = delete;
  ReplacementPolicy& operator=(const ReplacementPolicy&) = delete;

  /// Called once before simulation. `cache` outlives the simulation; the
  /// policy should size its metadata from `map` / `cache.capacity()` here.
  virtual void attach(const BlockMap& map, CacheContents& cache) = 0;

  /// Offline knowledge hook, invoked after attach() and before the first
  /// access; the default (online policies) ignores it.
  virtual void prepare(const Trace& /*trace*/) {}

  /// The accessed item was resident. Update recency/frequency metadata.
  virtual void on_hit(ItemId item) = 0;

  /// The accessed item was not resident; a miss transaction is open.
  /// Must leave `item` resident (load it, evicting as necessary).
  virtual void on_miss(ItemId item) = 0;

  /// Forget all learned state (cache contents are reset by the simulator).
  virtual void reset() = 0;

  /// Stable display name, e.g. "item-lru" or "iblp(i=512,b=512)".
  virtual std::string name() const = 0;

 protected:
  /// Valid after attach().
  const BlockMap& map() const { return *map_; }
  CacheContents& cache() const { return *cache_; }
  bool attached() const noexcept { return cache_ != nullptr; }

  /// Subclasses call this from their attach() override.
  void set_attachment(const BlockMap& map, CacheContents& cache) {
    map_ = &map;
    cache_ = &cache;
  }

 private:
  const BlockMap* map_ = nullptr;
  CacheContents* cache_ = nullptr;
};

}  // namespace gcaching
