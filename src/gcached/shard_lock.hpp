// The sanctioned per-shard lock of the gcached runtime.
//
// Every gcached shard is guarded by one `ShardLock` (a std::mutex wrapper).
// This file is the ONLY place per-access code may touch a raw mutex:
// gclint's `hot-region-raw-lock` rule bans mutex/lock_guard tokens inside
// GC_HOT_REGION blocks everywhere else, so all per-access locking is forced
// through `ShardGuard` and automatically inherits
//
//   * try-lock first — the uncontended path is one atomic RMW, no syscall;
//   * yield-and-retry on contention — no thread ever sleeps while holding a
//     shard, so holds last a cache transition (tens of ns) and a yield is
//     the right wait. A blocking lock() parks the loser in the kernel
//     instead, and the futex wake-up costs more than the hold it waited
//     for (docs/CONCURRENCY.md has the measurement);
//   * contention telemetry — acquisitions / contended acquisitions / yields
//     are counted into the caller's ClientContext, cheap per-thread plain
//     counters that the load generator sums into its LoadResult once per
//     run (never per operation).
//
// The ClientContext also carries the client's deferred hit recency: per
// shard, up to kDeferredHits hits whose policy update ShardedCache applies
// in a later hold of the same client, so a temporal hit takes no hold at
// all. The buffers are sized on the client's first access, before any
// hold, because nothing may allocate under a guard. That first access also
// enrolls the client in the cache's HitSlots: one count per shard of the
// hits it served without a hold, owned by the cache so the counts outlive
// the context. Enrolment takes the one non-shard lock of the access path,
// which is why HitSlots lives here too.
//
// It is also the sanctioned *blocking* home: gclint's lock-discipline rule is
// unconditional ("no blocking while a shard guard is live — period", not
// suppressible with GCLINT-ALLOW), so every primitive that parks a thread —
// the simulated backend fill sleep (`backend_fill`) and the MSHR fill-gate
// wait/notify pair (`FillGate`) — lives here, callable only with no guard
// held. The gate's wait helper is likewise the only place the fill path may
// read a clock (this file and gcmon are the clock homes): the delayed-hit
// queuing cost is measured inside `FillGate::await_past`, never in the
// access transition itself.
//
// See docs/CONCURRENCY.md for the full locking discipline.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "core/types.hpp"
#include "util/contracts.hpp"

namespace gcaching::gcached {

/// Hits one client may leave pending on one shard before it applies them:
/// a compile-time constant, not a knob (sharded_cache.hpp, "Lock-free
/// temporal hits and deferred hit recency" in docs/CONCURRENCY.md).
inline constexpr std::size_t kDeferredHits = 32;

/// One client's hits on one shard whose policy recency update
/// (`on_hit`) is still pending, in hit order, as shard-local item ids.
struct DeferredHits {
  std::array<ItemId, kDeferredHits> items;
  std::uint32_t size = 0;
};

/// Eight shards' hit counts of one client, on a cache line of their own so
/// no two clients' counts share a line. Each count has one writer, the
/// client, which adds with a relaxed load and store; readers sum them with
/// relaxed loads (HitSlots::totals).
struct alignas(64) HitCountLine {
  static constexpr std::size_t kCounts = 8;
  std::array<std::atomic<std::uint64_t>, kCounts> counts{};
};

/// Per-client state. Never shared between threads — that is what makes it
/// free. It holds the contention counters and, once the client's first
/// access has bound it to a cache, one DeferredHits buffer per shard of
/// that cache and a pointer to its hit-count slot in that cache. A context
/// serves exactly one cache (access on another is a GC_HOT_REQUIRE
/// violation), and ConcurrentCache::drain applies what is still pending
/// when the client is done. A context destroyed undrained only loses those
/// recency updates; the stats are already exact, because the slot belongs
/// to the cache.
struct ClientContext {
  std::uint64_t lock_acquisitions = 0;  ///< total lock() calls
  std::uint64_t lock_contended = 0;     ///< calls whose first try_lock failed
  std::uint64_t backoff_rounds = 0;     ///< failed retries, one yield each
  std::uint64_t lockfree_hits = 0;      ///< temporal hits served with no hold
  const void* cache = nullptr;          ///< the cache this context serves
  std::vector<DeferredHits> deferred;   ///< one per shard of `cache`
  HitCountLine* hit_counts = nullptr;   ///< its slot in `cache`'s HitSlots

  GC_HOT_REGION_BEGIN(client_hit_count)
  /// Counts one hit served without a hold on shard `s`. The client is the
  /// count's only writer, so a relaxed load and store replace an RMW.
  void count_lockfree_hit(std::size_t s) noexcept {
    ++lockfree_hits;
    std::atomic<std::uint64_t>& n =
        hit_counts[s / HitCountLine::kCounts].counts[s % HitCountLine::kCounts];
    n.store(n.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  }
  GC_HOT_REGION_END(client_hit_count)
};

/// The hit-count slots of every client a cache has bound: one count per
/// shard per client. The cache owns them, so a client's counts outlive its
/// ClientContext, and a slot is never freed before the cache. Enrolment
/// and reads take `mu_`, a cold lock: a client enrolls once, on its first
/// access, and readers are the cold snapshot paths.
class HitSlots {
 public:
  explicit HitSlots(std::size_t num_shards)
      : num_shards_(num_shards),
        lines_((num_shards + HitCountLine::kCounts - 1) /
               HitCountLine::kCounts) {}
  HitSlots(const HitSlots&) = delete;
  HitSlots& operator=(const HitSlots&) = delete;

  /// A new client's slot, every count zero. The slot's storage never moves.
  HitCountLine* enroll() {
    std::lock_guard<std::mutex> lk(mu_);
    return slots_.emplace_back(lines_).data();
  }

  /// Per shard, the sum of every slot's count: exact once the clients are
  /// quiesced.
  std::vector<std::uint64_t> totals() const {
    std::vector<std::uint64_t> sums(num_shards_, 0);
    std::lock_guard<std::mutex> lk(mu_);
    for (const std::vector<HitCountLine>& slot : slots_)
      for (std::size_t s = 0; s < num_shards_; ++s)
        sums[s] += slot[s / HitCountLine::kCounts]
                       .counts[s % HitCountLine::kCounts]
                       .load(std::memory_order_relaxed);
    return sums;
  }

 private:
  const std::size_t num_shards_;
  const std::size_t lines_;  ///< HitCountLines per slot
  mutable std::mutex mu_;
  std::vector<std::vector<HitCountLine>> slots_;  ///< one per client
};

/// One shard's lock, always taken exclusively: every shard transition is
/// made by the shard's single writer. A temporal hit is no transition and
/// takes no lock (sharded_cache.hpp).
class ShardLock {
 public:
  ShardLock() = default;
  ShardLock(const ShardLock&) = delete;
  ShardLock& operator=(const ShardLock&) = delete;

  GC_HOT_REGION_BEGIN(shard_lock_acquire)
  void lock(ClientContext& ctx) {
    ++ctx.lock_acquisitions;
    if (mu_.try_lock()) return;
    ++ctx.lock_contended;
    do {
      ++ctx.backoff_rounds;
      std::this_thread::yield();
    } while (!mu_.try_lock());
  }

  void unlock() { mu_.unlock(); }
  GC_HOT_REGION_END(shard_lock_acquire)

 private:
  std::mutex mu_;
};

/// RAII exclusive acquisition — the only way gcached hot paths take a shard.
class ShardGuard {
 public:
  GC_HOT_REGION_BEGIN(shard_guard)
  ShardGuard(ShardLock& lock, ClientContext& ctx) : lock_(lock) {
    lock_.lock(ctx);
  }
  ~ShardGuard() { lock_.unlock(); }
  GC_HOT_REGION_END(shard_guard)

  ShardGuard(const ShardGuard&) = delete;
  ShardGuard& operator=(const ShardGuard&) = delete;

 private:
  ShardLock& lock_;
};

/// The simulated backend fill, slept with NO shard guard held (the fill
/// path's unlocked window). Centralized here because this file is the one
/// blocking home the lock-discipline rule recognises — a sleep token
/// anywhere else in a gcached hot path is a lint error, with no ALLOW
/// escape.
GC_HOT_REGION_BEGIN(backend_fill)
inline void backend_fill(std::uint64_t fill_latency_ns) {
  if (fill_latency_ns == 0) return;
  std::this_thread::sleep_for(std::chrono::nanoseconds(fill_latency_ns));
}
GC_HOT_REGION_END(backend_fill)

/// One MSHR entry's completion gate: coalesced waiters park here while the
/// filling thread sleeps its backend fill, and the filler's commit releases
/// them all at once. Epoch-based so the hand-off is race-free without the
/// waiter ever holding two locks:
///
///   waiter (under shard guard):  seen = gate.epoch()        — entry in flight
///   waiter (guard RELEASED):     ns = gate.await_past(seen) — parks
///   filler (commit, under guard): gate.advance()            — epoch++, wake
///
/// If the commit lands between the waiter's epoch read and its await_past
/// call, the epoch has already moved past `seen` and await_past returns
/// immediately — the waiter can never sleep through a wake-up. Entry reuse
/// is safe for the same reason: reserve/advance both happen under the shard
/// guard, so a new waiter of a recycled entry always reads the post-advance
/// epoch.
///
/// await_past also *measures* the wait with a steady clock — the delayed
/// hit's queuing cost (remaining fill time at arrival). That read is legal
/// only because this file is a gclint clock home; the measurement belongs to
/// the blocking primitive, not to the cache transition that consumes it.
class FillGate {
 public:
  FillGate() = default;
  FillGate(const FillGate&) = delete;
  FillGate& operator=(const FillGate&) = delete;

  GC_HOT_REGION_BEGIN(fill_gate)
  /// Current completion epoch. Callable under the shard guard (relaxed
  /// atomic load; never blocks).
  std::uint64_t epoch() const noexcept {
    return epoch_.load(std::memory_order_relaxed);
  }

  /// Parks until the epoch moves past `seen`; returns the measured wait in
  /// nanoseconds. MUST be called with no shard guard held.
  std::uint64_t await_past(std::uint64_t seen) {
    const auto t0 = std::chrono::steady_clock::now();
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] {
      return epoch_.load(std::memory_order_relaxed) != seen;
    });
    lk.unlock();
    const auto t1 = std::chrono::steady_clock::now();
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count());
  }

  /// Commit hand-off: bumps the epoch and releases every parked waiter.
  /// Called by the filling thread under the shard guard (the cv mutex is
  /// internal and held only for the store — waiters in cv_.wait have
  /// released it, so this never blocks meaningfully).
  void advance() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      epoch_.store(epoch_.load(std::memory_order_relaxed) + 1,
                   std::memory_order_relaxed);
    }
    cv_.notify_all();
  }
  GC_HOT_REGION_END(fill_gate)

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::atomic<std::uint64_t> epoch_{0};
};

}  // namespace gcaching::gcached
