// A small fixed-size thread pool for parallel parameter sweeps.
//
// Design constraints (per the verifying-simulator philosophy):
//   * each submitted task is a self-contained simulation with its own seed
//     and policy instance, so results are bit-identical at any thread count;
//   * exceptions inside tasks are captured and rethrown on wait(), so a
//     contract violation in one sweep point fails the whole bench loudly
//     instead of being swallowed by a worker thread.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/obs.hpp"
#include "util/contracts.hpp"

namespace gcaching {

class ThreadPool {
 public:
  /// `threads` = 0 uses the hardware concurrency (at least 1).
  explicit ThreadPool(std::size_t threads = 0) {
    if (threads == 0)
      threads = std::max(1u, std::thread::hardware_concurrency());
    workers_.reserve(threads);
    for (std::size_t w = 0; w < threads; ++w)
      workers_.emplace_back([this, w] { worker_loop(w); });
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
    }
    cv_.notify_all();
    for (auto& t : workers_) t.join();
  }

  std::size_t num_threads() const noexcept { return workers_.size(); }

  /// Enqueue a task. Must not be called concurrently with wait().
  void submit(std::function<void()> task) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      GC_REQUIRE(!stopping_, "submit after shutdown");
      queue_.push_back(std::move(task));
      ++outstanding_;
    }
    cv_.notify_one();
  }

  /// Blocks until every submitted task has finished; rethrows the first
  /// captured task exception, if any.
  void wait() {
    // GCLINT-ALLOW(hot-path): unqualified-name collision — the fill_gate hot region calls condition_variable::wait, never ThreadPool::wait; pool waiting is sweep-/run-boundary only
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [this] { return outstanding_ == 0; });
    if (first_error_) {
      const std::exception_ptr err = first_error_;
      first_error_ = nullptr;
      std::rethrow_exception(err);
    }
  }

  /// Convenience: run fn(i) for i in [0, count) across the pool and wait.
  /// Indices are submitted as contiguous chunks — a handful of tasks per
  /// worker — rather than one heap-allocated std::function per index, so
  /// large sweeps spend their time simulating instead of contending on the
  /// queue mutex. If a call throws, the remaining indices of *that chunk*
  /// are skipped; wait() rethrows the first exception either way.
  template <typename Fn>
  void parallel_for(std::size_t count, Fn&& fn) {
    if (count == 0) return;
    // ~4 chunks per worker balances load (cells vary in cost) against
    // per-task queue/allocation overhead.
    const std::size_t target_chunks =
        std::min<std::size_t>(count, num_threads() * 4);
    const std::size_t chunk = (count + target_chunks - 1) / target_chunks;
    for (std::size_t begin = 0; begin < count; begin += chunk) {
      const std::size_t end = std::min(begin + chunk, count);
      submit([&fn, begin, end] {
        for (std::size_t i = begin; i < end; ++i) fn(i);
      });
    }
    wait();
  }

 private:
  void worker_loop([[maybe_unused]] std::size_t worker_index) {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
        if (queue_.empty()) return;  // stopping, queue drained
        task = std::move(queue_.front());
        queue_.pop_front();
      }
      // Named per task, not at thread start: the trace log is typically
      // installed after the pool's workers are already parked (idempotent,
      // see TraceLog::set_thread_name).
      GC_OBS_THREAD_NAME("gcpool-worker-" + std::to_string(worker_index));
      try {
        GC_OBS_SPAN(task_span, "pool_task", "pool");
        task();
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu_);
        if (!first_error_) first_error_ = std::current_exception();
      }
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (--outstanding_ == 0) done_cv_.notify_all();
      }
    }
  }

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable done_cv_;
  std::size_t outstanding_ = 0;
  bool stopping_ = false;
  std::exception_ptr first_error_;
};

}  // namespace gcaching
