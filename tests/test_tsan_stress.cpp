// Concurrency stress tests, written for the `tsan` preset (they run in every
// configuration; ThreadSanitizer is what gives them teeth). The design claim
// under test is the thread pool's contract: every submitted task is
// self-contained, so sweep results are bit-identical at any thread count and
// any data race in ThreadPool / run_sweep is a real bug — tools/sanitizers/
// tsan.supp stays empty.
//
// The tasks here are deliberately tiny: the point is to maximize scheduler
// interleavings on the pool's queue, counters, and error slot, not to
// simulate quickly.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "sim/runner.hpp"
#include "sim/thread_pool.hpp"
#include "traces/synthetic.hpp"

namespace gcaching {
namespace {

std::size_t hardware_threads() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

TEST(TsanStress, ParallelForTinyTasksAtEveryThreadCount) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    hardware_threads()}) {
    ThreadPool pool(threads);
    for (int round = 0; round < 20; ++round) {
      // 257 single-multiply tasks: write-only, disjoint slots. Any cross-
      // thread visibility bug in chunk handoff shows up as a torn/missing
      // element; TSan sees the race itself.
      std::vector<std::uint64_t> out(257, 0);
      pool.parallel_for(out.size(), [&out](std::size_t i) { out[i] = i * i; });
      for (std::size_t i = 0; i < out.size(); ++i) ASSERT_EQ(out[i], i * i);
    }
  }
}

TEST(TsanStress, SubmitWaitReuseCycles) {
  // Repeated submit/wait cycles on one pool: outstanding_ must return to
  // zero and the workers must stay parked in between without racing the
  // next batch.
  ThreadPool pool(2);
  std::atomic<std::uint64_t> sum{0};
  for (int cycle = 0; cycle < 50; ++cycle) {
    for (int i = 0; i < 8; ++i)
      pool.submit([&sum] { sum.fetch_add(1, std::memory_order_relaxed); });
    pool.wait();
  }
  EXPECT_EQ(sum.load(), 50u * 8u);
}

TEST(TsanStress, ExceptionCaptureUnderContention) {
  // Several tasks throw concurrently; exactly one exception must be handed
  // to wait() per cycle and the pool must stay usable afterwards (the
  // first_error_ slot and outstanding_ bookkeeping race-free).
  ThreadPool pool(2);
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 16; ++i)
      pool.submit([i] {
        if (i % 5 == 0) throw std::runtime_error("boom");
      });
    EXPECT_THROW(pool.wait(), std::runtime_error);
  }
  std::atomic<int> ok{0};
  for (int i = 0; i < 16; ++i) pool.submit([&ok] { ok.fetch_add(1); });
  pool.wait();
  EXPECT_EQ(ok.load(), 16);
}

void expect_identical_cells(const std::vector<sim::SweepCell>& a,
                            const std::vector<sim::SweepCell>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("cell " + std::to_string(i));
    EXPECT_EQ(a[i].workload_index, b[i].workload_index);
    EXPECT_EQ(a[i].policy_index, b[i].policy_index);
    EXPECT_EQ(a[i].capacity, b[i].capacity);
    EXPECT_EQ(a[i].stats.accesses, b[i].stats.accesses);
    EXPECT_EQ(a[i].stats.hits, b[i].stats.hits);
    EXPECT_EQ(a[i].stats.misses, b[i].stats.misses);
    EXPECT_EQ(a[i].stats.temporal_hits, b[i].stats.temporal_hits);
    EXPECT_EQ(a[i].stats.spatial_hits, b[i].stats.spatial_hits);
    EXPECT_EQ(a[i].stats.items_loaded, b[i].stats.items_loaded);
    EXPECT_EQ(a[i].stats.sideloads, b[i].stats.sideloads);
    EXPECT_EQ(a[i].stats.evictions, b[i].stats.evictions);
    EXPECT_EQ(a[i].stats.wasted_sideloads, b[i].stats.wasted_sideloads);
  }
}

TEST(TsanStress, RunSweepBitIdenticalAcrossThreadCounts) {
  // The sweep's longest-first schedule starts stack rows and single cells
  // out of order and writes results back concurrently; at 2 / hardware
  // threads every SimStats counter must match the serial baseline.
  const std::vector<Workload> workloads = {
      traces::zipf_blocks(48, 8, 1500, 0.9, 3, 11),
      traces::sequential_scan(128, 8, 1500),
  };
  sim::SweepSpec spec;
  spec.workloads = &workloads;
  spec.policy_specs = {"item-lru", "block-lru", "item-fifo", "gcm:seed=3"};
  spec.capacities = {16, 32, 64};
  spec.threads = 1;
  const auto baseline = sim::run_sweep(spec);
  ASSERT_EQ(baseline.size(),
            workloads.size() * spec.policy_specs.size() *
                spec.capacities.size());
  for (const std::size_t threads : {std::size_t{2}, std::size_t{0}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    spec.threads = threads;
    expect_identical_cells(baseline, sim::run_sweep(spec));
  }
}

}  // namespace
}  // namespace gcaching
