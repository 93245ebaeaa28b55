// The sanctioned per-shard lock of the gcached runtime.
//
// Every gcached shard is guarded by one `ShardLock` (a std::mutex wrapper).
// This file is the ONLY place per-access code may touch a raw mutex:
// gclint's `hot-path` rule bans mutex/lock_guard tokens inside GC_HOT_REGION
// blocks, and in every function they reach, everywhere else, so all
// per-access locking is forced through `ShardGuard` and automatically
// inherits
//
//   * try-lock first — the uncontended path is one atomic RMW, no syscall;
//   * yield-and-retry on contention — no thread ever sleeps while holding a
//     shard, so holds last a cache transition (tens of ns) and a yield is
//     the right wait. A blocking lock() parks the loser in the kernel
//     instead, and the futex wake-up costs more than the hold it waited
//     for (docs/CONCURRENCY.md has the measurement);
//   * contention telemetry — `lock()` returns its failed try_locks, and the
//     caller's hold counts the acquisition, whether it was contended, and
//     those failures in the client's count slot for the shard.
//
// The client's per-shard state lives here too: in its ClientContext, up to
// kDeferredHits hits whose policy update its next hold on the shard
// applies, so a temporal hit takes no hold; in the cache's ClientSlots, its
// lock-free hits, holds, contended holds and failed try_locks, counted
// once, and its one fill register (`FillRegister`, the client's MSHR). Both
// are set up on the client's first access, before any hold, because
// nothing may allocate under a guard; enrolling them takes the one
// non-shard lock of the access path, which is why ClientSlots lives here.
//
// It is also the sanctioned *blocking* home: gclint's lock-discipline rule is
// unconditional ("no blocking while a shard guard is live — period", not
// suppressible with GCLINT-ALLOW), so every primitive that parks a thread —
// the simulated backend fill (`backend_fill`, a `deadline_wait` that sleeps
// and then spins) and the fill register's wait/notify pair (`FillGate`) —
// lives here, callable only with no guard held. These waits are likewise
// the only places the fill path may read a clock (gclint's hot-path rule
// exempts this file from its lock, clock and blocking bans): the fill's
// deadline is taken inside `backend_fill` and the delayed-hit queuing cost
// is measured inside `FillGate::await_past`, never in the access
// transition itself.
//
// See docs/CONCURRENCY.md for the full locking discipline.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "core/stats.hpp"
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

/// One client's LockCounts on one shard, on a cache line of its own so no
/// two clients' counts share a line. The client is each count's only
/// writer (ClientContext::add); readers load them relaxed.
struct alignas(64) SlotCounts {
  std::atomic<std::uint64_t> lockfree_hits{0};
  std::atomic<std::uint64_t> holds{0};
  std::atomic<std::uint64_t> contended_holds{0};
  std::atomic<std::uint64_t> trylock_failures{0};

  void add_to(LockCounts& sum) const noexcept {
    sum.lockfree_hits += lockfree_hits.load(std::memory_order_relaxed);
    sum.holds += holds.load(std::memory_order_relaxed);
    sum.contended_holds += contended_holds.load(std::memory_order_relaxed);
    sum.trylock_failures += trylock_failures.load(std::memory_order_relaxed);
  }
};

/// A fill register's completion gate: coalesced waiters park here while the
/// filling client waits out its backend fill, and the filler's commit
/// releases them all at once. Epoch-based so the hand-off is race-free
/// without the waiter ever holding two locks:
///
///   waiter (under shard guard):  seen = gate.epoch()        — register linked
///   waiter (guard RELEASED):     ns = gate.await_past(seen) — parks
///   filler (commit, under guard): gate.advance()            — epoch++, wake
///
/// If the commit lands between the waiter's epoch read and its await_past
/// call, the epoch has already moved past `seen` and await_past returns
/// immediately — the waiter can never sleep through a wake-up. Reuse of the
/// register, on its shard or on any other, keeps this. A waiter reads the
/// epoch only under the shard guard and only while the register is on that
/// shard's in-flight list. The owner has no other fill in flight then, so
/// the only write that can follow is that fill's commit `advance`, made
/// under the same guard that unlinks the register. A later fill of the
/// register, on any shard, only advances the epoch further past `seen`. So
/// a waiter can neither sleep through its wake nor wake early.
///
/// await_past also *measures* the wait with a steady clock — the delayed
/// hit's queuing cost (remaining fill time at arrival). That read is legal
/// only because this file is exempt from gclint's hot-path clock ban; the
/// measurement belongs to the blocking primitive, not to the cache
/// transition that consumes it.
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

/// One client's fill register, its MSHR (Miss Status Holding Register): the
/// block its in-flight fill loads and the gate that fill's coalesced
/// waiters park on. A client has at most one fill in flight, so one
/// register per client bounds a shard's in-flight fills by the client
/// count, with no table to fill up. While its fill is in flight the
/// register is linked into its shard's list; `block` and `next` are read
/// and written only under that shard's lock.
struct FillRegister {
  BlockId block = 0;             ///< shard-local id of the block being filled
  FillRegister* next = nullptr;  ///< next in-flight register on the shard
  FillGate gate;
};

/// Per-client state. Never shared between threads — that is what makes it
/// free. Its first access binds it to one cache (access on another is a
/// GC_HOT_REQUIRE violation): one DeferredHits buffer per shard, and its
/// slot in the cache's ClientSlots, the only home of its lock counts, next
/// to its fill register.
/// ConcurrentCache::drain applies what is still pending when the client is
/// done; a context destroyed undrained only loses those recency updates.
struct ClientContext {
  const void* cache = nullptr;         ///< the cache this context serves
  std::vector<DeferredHits> deferred;  ///< one per shard of `cache`
  SlotCounts* slot = nullptr;          ///< one per shard, in `cache`
  FillRegister* fill = nullptr;        ///< its one fill register, in `cache`

  GC_HOT_REGION_BEGIN(client_counts)
  /// Counts one hit served without a hold on shard `s`.
  void count_lockfree_hit(std::size_t s) noexcept {
    add(slot[s].lockfree_hits, 1);
  }

  /// Counts one hold of shard `s` whose lock() failed `trylock_failures`
  /// try_locks first; it was contended if any failed.
  void count_hold(std::size_t s, std::uint64_t trylock_failures) noexcept {
    add(slot[s].holds, 1);
    if (trylock_failures == 0) return;
    add(slot[s].contended_holds, 1);
    add(slot[s].trylock_failures, trylock_failures);
  }

  /// The client is the count's only writer: no RMW is needed.
  static void add(std::atomic<std::uint64_t>& count,
                  std::uint64_t n) noexcept {
    count.store(count.load(std::memory_order_relaxed) + n,
                std::memory_order_relaxed);
  }
  GC_HOT_REGION_END(client_counts)

  /// Its counts summed over its cache's shards; zero before its first
  /// access.
  LockCounts totals() const noexcept {
    LockCounts sum;
    for (std::size_t s = 0; s < deferred.size(); ++s) slot[s].add_to(sum);
    return sum;
  }
};

/// The count slots of every client a cache has bound, one SlotCounts per
/// shard each, and their fill registers. The cache owns them, so a client's
/// counts and register outlive its ClientContext. Enrolment (once per
/// client) and reads (the cold snapshot paths) take `mu_`, a cold lock.
class ClientSlots {
 public:
  explicit ClientSlots(std::size_t num_shards) : num_shards_(num_shards) {}
  ClientSlots(const ClientSlots&) = delete;
  ClientSlots& operator=(const ClientSlots&) = delete;

  /// Points `ctx` at a new slot, every count zero, and a new fill
  /// register. Neither's storage ever moves.
  void enroll(ClientContext& ctx) {
    std::lock_guard<std::mutex> lk(mu_);
    ctx.slot = slots_.emplace_back(num_shards_).data();
    ctx.fill = &fills_.emplace_back();
  }

  /// Per shard, the sum of every client's counts: exact once the clients
  /// are quiesced, and never smaller than a previous read.
  std::vector<LockCounts> per_shard() const {
    std::vector<LockCounts> sums(num_shards_);
    std::lock_guard<std::mutex> lk(mu_);
    for (const std::vector<SlotCounts>& slot : slots_)
      for (std::size_t s = 0; s < num_shards_; ++s) slot[s].add_to(sums[s]);
    return sums;
  }

 private:
  const std::size_t num_shards_;
  mutable std::mutex mu_;
  std::vector<std::vector<SlotCounts>> slots_;  ///< one per client
  std::deque<FillRegister> fills_;              ///< one per client
};

/// One shard's lock, always taken exclusively: every shard transition is
/// made by the shard's single writer. A temporal hit is no transition and
/// takes no lock (sharded_cache.hpp). The lock counts nothing itself.
class ShardLock {
 public:
  ShardLock() = default;
  ShardLock(const ShardLock&) = delete;
  ShardLock& operator=(const ShardLock&) = delete;

  GC_HOT_REGION_BEGIN(shard_lock_acquire)
  /// Takes the lock; returns how many try_locks failed first, one yield
  /// each (0 when uncontended).
  std::uint64_t lock() {
    std::uint64_t failures = 0;
    while (!mu_.try_lock()) {
      ++failures;
      std::this_thread::yield();
    }
    return failures;
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
  explicit ShardGuard(ShardLock& lock)
      : lock_(lock), trylock_failures_(lock.lock()) {}
  ~ShardGuard() { lock_.unlock(); }
  GC_HOT_REGION_END(shard_guard)

  ShardGuard(const ShardGuard&) = delete;
  ShardGuard& operator=(const ShardGuard&) = delete;

  /// The try_locks that failed before this guard got the lock.
  std::uint64_t trylock_failures() const noexcept { return trylock_failures_; }

 private:
  ShardLock& lock_;
  const std::uint64_t trylock_failures_;
};

/// How much of a deadline wait is spun rather than slept: a compile-time
/// constant, not a knob. A sleeping thread wakes late, and later when other
/// clients are busy: with 2-4 threads waiting at once, a wait that sleeps to
/// 6-14 us before its deadline ends ~5 us late on average, one that sleeps
/// to 20 us before it ~1-2 us late, and a larger margin buys nothing more
/// (docs/CONCURRENCY.md has the probe of 1, 2 and 4 waiters). A wait no
/// longer than this is never slept.
inline constexpr std::uint64_t kFillSpinNs = 20'000;

/// Returns once `Clock` reads `deadline` or later, never before: sleeps
/// until kFillSpinNs before the deadline, then spins on the clock, yielding
/// the CPU between reads. A PAUSE spin instead stalled a wait for
/// milliseconds now and then on a KVM guest with 2-8 threads waiting at
/// once, most likely the host descheduling a vCPU that loops on PAUSE
/// (pause-loop exiting).
/// The one timed wait of a client thread — the backend fill and the open
/// loop's arrivals — so both end within a clock read of their instant, not
/// a kernel wake-up after it. Out of line, so the access path that inlines
/// backend_fill does not grow. Callable only with no shard guard held.
template <typename Clock, typename Duration>
[[gnu::noinline]] void deadline_wait(
    std::chrono::time_point<Clock, Duration> deadline) {
  std::this_thread::sleep_until(deadline -
                                std::chrono::nanoseconds(kFillSpinNs));
  while (Clock::now() < deadline) std::this_thread::yield();
}

/// The simulated backend fill: a deadline wait of `fill_latency_ns`, made
/// with NO shard guard held (the fill path's unlocked window). A fill of 0
/// returns before any clock read. Centralized here because this file is
/// the one blocking home the lock-discipline rule recognises — a sleep
/// token anywhere else in a gcached hot path is a lint error, with no
/// ALLOW escape.
GC_HOT_REGION_BEGIN(backend_fill)
inline void backend_fill(std::uint64_t fill_latency_ns) {
  if (fill_latency_ns == 0) return;
  using Clock = std::chrono::steady_clock;
  deadline_wait(Clock::now() + std::chrono::nanoseconds(fill_latency_ns));
}
GC_HOT_REGION_END(backend_fill)

}  // namespace gcaching::gcached
