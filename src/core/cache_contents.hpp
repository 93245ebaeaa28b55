// Ground-truth cache state with model-invariant enforcement.
//
// `CacheContents` is owned by the simulator, not by policies. Policies
// mutate it only through `load` / `evict` inside a miss transaction opened
// by the simulator, and the class *enforces* Definition 1:
//   * loads are only legal during a miss, and only for items of the
//     currently-missed block (the "any subset of that item's block" rule);
//   * occupancy never exceeds capacity (evict before load);
//   * the requested item must be resident when the transaction closes.
//
// It also performs the paper's hit taxonomy (Section 2, "Locality vs.
// traditional caching models"): a hit on an item that was side-loaded by a
// different item's miss and has not been touched since is a *spatial* hit;
// every other hit is *temporal*.
//
// All per-access mutators are defined inline here and carry GC_HOT_* tier
// contracts: enforced by default, compiled out under GC_FAST_SIM so the
// fast-path engine (core/simulator.hpp, `simulate_fast`) pays nothing for
// them. The per-access state is one flag byte per item (present /
// requested / touched), so the residency table an access touches is
// num_items bytes and stays cache-resident for realistic universes.
//
// Every flag store is a relaxed atomic store, so one reader may probe a
// flag byte without the lock that serializes the writers:
// `temporal_resident` is that probe (gcached's lock-free temporal hit,
// src/gcached/sharded_cache.hpp). Every other read stays plain; it runs
// under the writers' lock, or on the one thread of a sequential engine.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/block_map.hpp"
#include "core/types.hpp"
#include "util/contracts.hpp"

namespace gcaching {

enum class HitKind : std::uint8_t { kTemporal, kSpatial };

class CacheContents {
 public:
  // Defined inline (like the per-access mutators) so the fast engine's
  // translation unit sees the whole object lifetime: the flag array is then
  // known not to alias the policy's own state, which keeps the loop-carried
  // members in registers.
  CacheContents(const BlockMap& map, std::size_t capacity)
      : map_(map),
        capacity_(capacity),
        flags_(map.num_items(), Flag{}) {
    GC_REQUIRE(capacity >= 1, "cache capacity must be at least one item");
  }

  // ---- Read-only inspection (also the adversaries' view) -----------------
  GC_HOT_REGION_BEGIN(cache_contents_residency)
  bool contains(ItemId item) const {
    GC_HOT_REQUIRE(item < flags_.size(), "item id out of range");
    return (raw(flags_[item]) & kPresent) != 0;
  }

  /// True when a hit on `item` now would be temporal and write nothing:
  /// resident, and loaded as the request or touched since. One relaxed
  /// atomic load of the flag byte, so it is safe without the lock the
  /// mutators run under.
  bool temporal_resident(ItemId item) const {
    GC_HOT_REQUIRE(item < flags_.size(), "item id out of range");
    const std::uint8_t e = raw(
        std::atomic_ref<Flag>(const_cast<Flag&>(flags_[item]))
            .load(std::memory_order_relaxed));
    return (e & kPresent) != 0 && (e & (kTouched | kRequestedLoad)) != 0;
  }
  GC_HOT_REGION_END(cache_contents_residency)
  std::size_t occupancy() const noexcept { return occupancy_; }
  std::size_t capacity() const noexcept { return capacity_; }
  bool full() const noexcept { return occupancy_ == capacity_; }
  const BlockMap& map() const noexcept { return map_; }

  /// True while a miss transaction is open.
  bool in_miss() const noexcept { return current_block_ != kInvalidBlock; }

  /// The block whose miss is being served (only valid during a miss).
  BlockId missed_block() const;

  /// Calls fn(item) for every resident item, ascending id. O(num_items).
  /// Allocation-free templated form; policies should prefer this.
  template <typename Fn>
  void visit_residents(Fn&& fn) const {
    for (ItemId it = 0; it < flags_.size(); ++it)
      if ((raw(flags_[it]) & kPresent) != 0) fn(it);
  }

  /// Calls fn(item) for every resident item of `block`, ascending id.
  /// O(block size); safe against evicting the visited item from inside fn.
  template <typename Fn>
  void visit_residents_of_block(BlockId block, Fn&& fn) const {
    for (ItemId it : map_.items_of(block))
      if ((raw(flags_[it]) & kPresent) != 0) fn(it);
  }

  /// Type-erased form of visit_residents, kept for tests and tools where a
  /// per-call std::function allocation is irrelevant.
  void for_each_resident(const std::function<void(ItemId)>& fn) const;

  /// Snapshot of resident items, ascending. O(num_items); for tests/benches.
  std::vector<ItemId> resident_items() const;

  /// Number of residents of `block`. O(block size).
  std::size_t residents_of_block(BlockId block) const;

  // ---- Mutation API (simulator + policies) --------------------------------
  // Every mutator below runs once (or more) per simulated access; only
  // GC_HOT_* contracts are allowed in this region (enforced by gclint).
  GC_HOT_REGION_BEGIN(cache_contents_mutators)
  /// Simulator: classify & record a hit on a resident item. Returns the hit
  /// kind per the paper's taxonomy.
  HitKind record_hit(ItemId item) {
    GC_HOT_REQUIRE(!in_miss(), "record_hit during an open miss transaction");
    GC_HOT_REQUIRE(contains(item), "record_hit on a non-resident item");
    const std::uint8_t e = raw(flags_[item]);
    const HitKind kind =
        (e & (kTouched | kRequestedLoad)) == 0 ? HitKind::kSpatial
                                               : HitKind::kTemporal;
    // Skip the store when the bit is already set (the common case: every
    // requested load starts touched) — hits then leave the flag line clean.
    if ((e & kTouched) == 0) store(flags_[item], flag(e | kTouched));
    return kind;
  }

  /// Hit fast path for policies that declare `kRequestedLoadsOnly`: every
  /// resident item was loaded as its own request, so the touched bit is
  /// already set (record_hit's store would be a no-op) and the hit is
  /// statically temporal. The declaration is contract-checked here on every
  /// hit in checking builds.
  void record_requested_hit(ItemId item) {
    GC_HOT_REQUIRE(!in_miss(), "record_hit during an open miss transaction");
    GC_HOT_REQUIRE(contains(item), "record_hit on a non-resident item");
    GC_HOT_REQUIRE((raw(flags_[item]) & (kTouched | kRequestedLoad)) != 0,
                   "requested-loads-only policy hit an untouched sideload");
  }

  /// Simulator: open a miss transaction for non-resident `requested`.
  void begin_miss(ItemId requested) {
    begin_miss(requested, map_.block_of(requested));
  }

  /// Fast-path form: the caller supplies `requested`'s block id (typically
  /// precomputed per access, see Trace::precompute_block_ids) so the hot
  /// loop never makes the virtual BlockMap::block_of call.
  void begin_miss(ItemId requested, BlockId block) {
    GC_HOT_REQUIRE(!in_miss(), "begin_miss with a transaction already open");
    GC_HOT_REQUIRE(requested < flags_.size(), "item id out of range");
    GC_HOT_REQUIRE((raw(flags_[requested]) & kPresent) == 0,
                   "begin_miss on a resident item");
    GC_HOT_REQUIRE(block == map_.block_of(requested),
                   "supplied block id does not match the requested item");
    current_block_ = block;
    current_request_ = requested;
  }

  /// Policy: load `item` during a miss. `item` must belong to the missed
  /// block, be non-resident, and the cache must not be full.
  void load(ItemId item) {
    GC_HOT_REQUIRE(in_miss(), "load outside a miss transaction");
    GC_HOT_REQUIRE(item < flags_.size(), "item id out of range");
    GC_HOT_REQUIRE(map_.block_of(item) == current_block_,
                   "Definition 1 violation: load outside the missed block");
    GC_HOT_REQUIRE((raw(flags_[item]) & kPresent) == 0,
                   "loading an already-resident item");
    GC_HOT_REQUIRE(occupancy_ < capacity_,
                   "capacity violation: evict before loading");
    const bool requested = (item == current_request_);
    store(flags_[item], flag(requested ? (kPresent | kRequestedLoad | kTouched)
                                       : kPresent));
    ++occupancy_;
    ++items_loaded_;
    if (!requested) ++sideloads_;
  }

  /// Policy: evict resident `item`. Legal at any point — Definition 1 only
  /// constrains *loads*; a policy may reorganize on hits (e.g. IBLP evicts
  /// an item-layer victim when promoting a block-layer hit).
  void evict(ItemId item) {
    GC_HOT_REQUIRE(item < flags_.size(), "item id out of range");
    const std::uint8_t e = raw(flags_[item]);
    GC_HOT_REQUIRE((e & kPresent) != 0, "evicting a non-resident item");
    if ((e & (kTouched | kRequestedLoad)) == 0) ++wasted_sideloads_;
    store(flags_[item], Flag{});
    --occupancy_;
    ++evictions_;
  }

  /// Policy: load every non-resident item of the missed `block`, in
  /// `items_of` order: `load` on each, as one call. Whole-block loads go
  /// through here because each flag store is an atomic, which GCC treats
  /// as a compiler barrier: this loop keeps its state in locals, so the
  /// barrier forces no reloads, where a policy's loop of `load` calls
  /// reloads the flag array and round-trips every counter through memory
  /// per item.
  void load_block(BlockId block) {
    GC_HOT_REQUIRE(in_miss(), "load outside a miss transaction");
    GC_HOT_REQUIRE(block == current_block_,
                   "Definition 1 violation: load outside the missed block");
    Flag* const flags = flags_.data();
    const ItemId request = current_request_;
    std::size_t loaded = 0;
    std::size_t sideloaded = 0;
    for (const ItemId it : map_.items_of(block)) {
      if ((raw(flags[it]) & kPresent) != 0) continue;
      GC_HOT_REQUIRE(occupancy_ + loaded < capacity_,
                     "capacity violation: evict before loading");
      const bool requested = (it == request);
      store(flags[it], flag(requested ? (kPresent | kRequestedLoad | kTouched)
                                      : kPresent));
      ++loaded;
      if (!requested) ++sideloaded;
    }
    occupancy_ += loaded;
    items_loaded_ += loaded;
    sideloads_ += sideloaded;
  }

  /// Policy: evict every resident item of `block`: `evict` on each, as one
  /// call, for the reason load_block gives.
  void evict_block(BlockId block) {
    Flag* const flags = flags_.data();
    std::size_t evicted = 0;
    std::uint64_t wasted = 0;
    for (const ItemId it : map_.items_of(block)) {
      const std::uint8_t e = raw(flags[it]);
      if ((e & kPresent) == 0) continue;
      if ((e & (kTouched | kRequestedLoad)) == 0) ++wasted;
      store(flags[it], Flag{});
      ++evicted;
    }
    occupancy_ -= evicted;
    evictions_ += evicted;
    wasted_sideloads_ += wasted;
  }

  /// Simulator: close the transaction; the requested item must be resident.
  void end_miss() {
    GC_HOT_REQUIRE(in_miss(), "end_miss without a transaction");
    GC_HOT_ENSURE((raw(flags_[current_request_]) & kPresent) != 0,
                  "policy failed to load the requested item");
    GC_HOT_ENSURE(occupancy_ <= capacity_, "occupancy exceeds capacity");
    current_block_ = kInvalidBlock;
    current_request_ = kInvalidItem;
  }
  GC_HOT_REGION_END(cache_contents_mutators)

  /// Drop everything and reset counters to the post-construction state.
  void reset();

  // ---- Lifetime counters ---------------------------------------------------
  /// Items brought into the cache, including requested ones.
  std::uint64_t items_loaded() const noexcept { return items_loaded_; }
  /// Items loaded as a side effect of a different item's miss.
  std::uint64_t sideloads() const noexcept { return sideloads_; }
  /// Evictions performed.
  std::uint64_t evictions() const noexcept { return evictions_; }
  /// Side-loaded items evicted without ever being accessed — pure pollution.
  std::uint64_t wasted_sideloads() const noexcept { return wasted_sideloads_; }

 private:
  // Per-item flag byte; a non-resident item is all-zero. A distinct
  // one-byte enum rather than std::uint8_t on purpose: unsigned char
  // accesses may alias *any* object, so every unrelated store would force
  // cached flag reads to be re-loaded; an enum has its own alias class.
  // Flag stores get no such help. Each is a relaxed atomic (see the file
  // comment), and GCC treats every atomic as a compiler barrier, so the
  // code after a flag store re-loads every member and pointer it had in a
  // register. load_block and evict_block keep whole-block loops clear of
  // that cost.
  enum class Flag : std::uint8_t {};
  static constexpr std::uint8_t kPresent = 1;        ///< resident now
  static constexpr std::uint8_t kRequestedLoad = 2;  ///< loaded as the request
  static constexpr std::uint8_t kTouched = 4;  ///< accessed since its load
  static constexpr std::uint8_t raw(Flag f) noexcept {
    return static_cast<std::uint8_t>(f);
  }
  static constexpr Flag flag(std::uint8_t b) noexcept {
    return static_cast<Flag>(b);
  }
  /// Every flag store goes through here (see the file comment).
  static void store(Flag& slot, Flag f) noexcept {
    std::atomic_ref<Flag>(slot).store(f, std::memory_order_relaxed);
  }

  // Read-only after construction: all a hit reads besides its flag byte.
  const BlockMap& map_;
  std::size_t capacity_;
  std::vector<Flag> flags_;
  // Written by misses. Kept off the header's cache line, so under
  // concurrent clients (gcached) a miss never invalidates the line every
  // hit reads.
  alignas(64) std::size_t occupancy_ = 0;
  BlockId current_block_ = kInvalidBlock;
  ItemId current_request_ = kInvalidItem;

  std::uint64_t items_loaded_ = 0;
  std::uint64_t sideloads_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t wasted_sideloads_ = 0;
};

}  // namespace gcaching
