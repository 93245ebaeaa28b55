// Per-shard MSHR (Miss Status Holding Register) table.
//
// One fixed-size table per shard tracks the blocks whose backend fill is
// currently in flight — registered by the thread that took the miss before
// it releases the shard lock to wait the fill out (src/gcached/
// sharded_cache.hpp). A concurrent access that misses on
// an in-flight block *coalesces*: it parks on the entry's FillGate instead
// of issuing a second fill, and is charged a delayed hit whose queuing cost
// is the measured remaining fill time ("Lower Bounds for Caching with
// Delayed Hits", arXiv:2006.00376). The GC-caching twist: when the pending
// fill sideloads the waiter's item (Definition-1 subset-of-block loads),
// the delayed hit was bought by spatial locality alone and is classified as
// a *free* delayed hit by the commit-time hit taxonomy.
//
// Concurrency contract: every table mutation (find / claim / release)
// happens under the owning shard's exclusive lock — the table itself needs
// no synchronization. The only cross-thread member is each entry's
// FillGate (shard_lock.hpp), whose epoch protocol makes the unlocked
// park/wake hand-off race-free.
//
// Hot-path discipline: the table is sized once at construction and never
// grows — claim() returns nullptr when full (the caller falls back to an
// unqueued fill) rather than allocating, so no allocation or container
// growth ever happens while a shard guard is live (gclint lock-discipline).
#pragma once

#include <cstddef>
#include <memory>

#include "core/types.hpp"
#include "gcached/shard_lock.hpp"
#include "util/contracts.hpp"

namespace gcaching::gcached {

/// One in-flight fill. `block` is only meaningful while `active`.
struct Mshr {
  BlockId block = 0;
  bool active = false;
  FillGate gate;
};

/// Fixed-size table of in-flight fills for ONE shard. All methods require
/// the shard's exclusive lock; see the header comment.
class MshrTable {
 public:
  explicit MshrTable(std::size_t entries)
      : entries_(entries), slots_(std::make_unique<Mshr[]>(entries)) {
    GC_REQUIRE(entries >= 1, "an MSHR table needs at least one entry");
  }

  MshrTable(const MshrTable&) = delete;
  MshrTable& operator=(const MshrTable&) = delete;

  GC_HOT_REGION_BEGIN(mshr_table)
  /// The active entry filling `block`, or nullptr. Linear scan: tables are
  /// a handful of entries (default 8), and the scan runs under the shard
  /// lock on the miss path only.
  Mshr* find(BlockId block) noexcept {
    for (std::size_t i = 0; i < entries_; ++i) {
      Mshr& e = slots_[i];
      if (e.active && e.block == block) return &e;
    }
    return nullptr;
  }

  /// Claims a free entry for `block`, or nullptr when every register is
  /// busy (the caller must fall back to an unqueued fill — never block
  /// waiting for a register while holding the shard).
  Mshr* claim(BlockId block) noexcept {
    for (std::size_t i = 0; i < entries_; ++i) {
      Mshr& e = slots_[i];
      if (!e.active) {
        e.active = true;
        e.block = block;
        ++inflight_;
        return &e;
      }
    }
    return nullptr;
  }

  /// Frees a claimed entry at fill commit. Does NOT advance the gate —
  /// the caller wakes waiters explicitly (under the same guard hold, so a
  /// recycled entry is never observable with a stale epoch).
  void release(Mshr* entry) noexcept {
    GC_HOT_REQUIRE(entry != nullptr && entry->active,
                   "released an MSHR entry that was not claimed");
    entry->active = false;
    GC_HOT_CHECK(inflight_ > 0, "MSHR inflight underflow");
    --inflight_;
  }

  std::size_t inflight() const noexcept { return inflight_; }
  std::size_t capacity() const noexcept { return entries_; }
  GC_HOT_REGION_END(mshr_table)

 private:
  std::size_t entries_;
  std::size_t inflight_ = 0;
  std::unique_ptr<Mshr[]> slots_;
};

}  // namespace gcaching::gcached
