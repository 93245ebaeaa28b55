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
//     counters that the load generator aggregates and emits through
//     GC_OBS_COUNT at collect time (never per operation).
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

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>

#include "util/contracts.hpp"

namespace gcaching::gcached {

/// Per-client-thread contention counters. Never shared between threads —
/// that is what makes them free.
struct ClientContext {
  std::uint64_t lock_acquisitions = 0;  ///< total lock() calls
  std::uint64_t lock_contended = 0;     ///< calls whose first try_lock failed
  std::uint64_t backoff_rounds = 0;     ///< failed retries, one yield each
};

/// One shard's lock, always taken exclusively: every shard access is a
/// cache transition by the shard's single writer.
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
