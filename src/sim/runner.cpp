#include "sim/runner.hpp"

#include <algorithm>
#include <atomic>
#include <span>

#include "core/simulator.hpp"
#include "locality/sample.hpp"
#include "obs/obs.hpp"
#include "policies/factory.hpp"
#include "sim/thread_pool.hpp"
#include "util/contracts.hpp"

namespace gcaching::sim {

std::vector<SweepCell> run_sweep(const SweepSpec& spec) {
  GC_REQUIRE(spec.workloads != nullptr, "sweep needs workloads");
  GC_REQUIRE(!spec.policy_specs.empty(), "sweep needs at least one policy");
  GC_REQUIRE(!spec.capacities.empty(), "sweep needs at least one capacity");

  const std::size_t nw = spec.workloads->size();
  const std::size_t np = spec.policy_specs.size();
  const std::size_t nc = spec.capacities.size();
  std::vector<SweepCell> cells(nw * np * nc);
  for (std::size_t w = 0; w < nw; ++w)
    for (std::size_t p = 0; p < np; ++p)
      for (std::size_t c = 0; c < nc; ++c) {
        SweepCell& cell = cells[(w * np + p) * nc + c];
        cell.workload_index = w;
        cell.policy_index = p;
        cell.capacity = spec.capacities[c];
      }

  ThreadPool pool(spec.threads);

  // Presampled workloads: each cell runs at its capacity scaled by the
  // workload's sample rate, floored at the partition's max block size so
  // block-granularity policies stay legal, and its counters are rescaled
  // to the unfiltered length. Both maps are the identity, bit for bit, when
  // the caller did not sample.
  const std::vector<Workload>& work = *spec.workloads;
  const bool sampled = !spec.presampled.empty();
  GC_REQUIRE(!sampled || spec.presampled.size() == nw,
             "presampled info must cover every workload");
  for (std::size_t w = 0; w < spec.presampled.size(); ++w) {
    const SweepSpec::Presampled& info = spec.presampled[w];
    GC_REQUIRE(info.rate > 0.0 && info.rate <= 1.0,
               "presampled rate must be in (0, 1]");
    GC_REQUIRE(info.total_accesses >= work[w].trace.size(),
               "presampled total is smaller than the filtered trace");
  }
  const auto effective_capacity = [&](std::size_t w, std::size_t capacity) {
    return sampled ? locality::scaled_capacity(
                         capacity, spec.presampled[w].rate,
                         work[w].map->max_block_size())
                   : capacity;
  };
  const auto correct_stats = [&](std::size_t w, const SimStats& stats) {
    return sampled ? locality::unsample_stats(
                         stats, spec.presampled[w].total_accesses)
                   : stats;
  };

  // Resolve each workload's per-access block ids once, up front: every
  // fast-path cell of the same workload shares one read-only array, so no
  // cell pays a virtual BlockMap::block_of call in its hot loop. Sampled
  // traces carry adopted ids from the sampler, so resolve_block_ids reuses
  // them for free. The resolution itself is memory-bound and
  // per-workload independent, so it runs across the pool too.
  std::vector<BlockIdVector> block_id_storage(nw);
  std::vector<std::span<const BlockId>> block_ids(nw);
  if (spec.use_fast_path)
    pool.parallel_for(nw, [&](std::size_t w) {
      const Workload& workload = work[w];
      GC_REQUIRE(workload.map != nullptr, "workload has no block map");
      GC_OBS_SPAN(span, "precompute_block_ids", "sweep");
      GC_OBS_SPAN_ARG(span, "workload", std::to_string(w));
      block_ids[w] = resolve_block_ids(*workload.map, workload.trace,
                                       block_id_storage[w]);
    });

  // One task list for both engines. On the fast path a (workload, policy)
  // row that takes the stack-distance pass (stack_column_eligible) is ONE
  // task covering every capacity; every other cell is its own task. Policy
  // costs skew ~17x, so tasks go out longest-estimated-first (LPT): a slow
  // task dispatched last would hold the whole sweep hostage on one thread.
  // Results land in preassigned row-major slots, so output order is
  // deterministic however the schedule interleaves.
  constexpr std::size_t kWholeRow = static_cast<std::size_t>(-1);
  // A stack pass costs about as much as 3-6 per-cell runs of its policy
  // (BENCH_sweep.json), whatever the number of capacities.
  constexpr double kStackPassCells = 4.0;
  struct Task {
    std::size_t w = 0;
    std::size_t p = 0;
    std::size_t c = kWholeRow;  ///< capacity index, or kWholeRow
    double cost = 0.0;
  };
  std::vector<Task> tasks;
  for (std::size_t w = 0; w < nw; ++w)
    for (std::size_t p = 0; p < np; ++p) {
      const std::string& policy = spec.policy_specs[p];
      const double cell_cost =
          estimated_sim_cost(policy, work[w].trace.size());
      if (spec.use_fast_path && stack_column_eligible(policy, *work[w].map)) {
        tasks.push_back({w, p, kWholeRow, kStackPassCells * cell_cost});
        continue;
      }
      for (std::size_t c = 0; c < nc; ++c)
        tasks.push_back({w, p, c, cell_cost});
    }
  std::stable_sort(
      tasks.begin(), tasks.end(),
      [](const Task& a, const Task& b) { return a.cost > b.cost; });

  const auto run_task = [&](const Task& t) {
    const Workload& workload = work[t.w];
    const std::string& policy = spec.policy_specs[t.p];
    SweepCell* const row = &cells[(t.w * np + t.p) * nc];
    if (t.c == kWholeRow) {
      GC_OBS_SPAN(span, "sweep_row", "sweep");
      GC_OBS_SPAN_ARG(span, "policy", policy);
      GC_OBS_SPAN_ARG(span, "workload", std::to_string(t.w));
      std::vector<std::size_t> caps(spec.capacities);
      for (std::size_t& cap : caps) cap = effective_capacity(t.w, cap);
      const std::vector<SimStats> column = simulate_column_spec(
          policy, *workload.map, workload.trace, block_ids[t.w], caps);
      for (std::size_t c = 0; c < nc; ++c)
        row[c].stats = correct_stats(t.w, column[c]);
      return;
    }
    SweepCell& cell = row[t.c];
    GC_OBS_SPAN(span, "sweep_cell", "sweep");
    GC_OBS_SPAN_ARG(span, "policy", policy);
    GC_OBS_SPAN_ARG(span, "capacity", std::to_string(cell.capacity));
    const std::size_t capacity = effective_capacity(t.w, cell.capacity);
    SimStats stats;
    if (spec.use_fast_path) {
      stats = simulate_fast_spec(policy, *workload.map, workload.trace,
                                 block_ids[t.w], capacity);
    } else {
      auto instance = make_policy(policy, capacity);
      stats = simulate(workload, *instance, capacity);
    }
    cell.stats = correct_stats(t.w, stats);
  };

  // One progress unit per task. `done` is shared across workers; the
  // callback itself is the caller's to make thread-safe.
  std::atomic<std::size_t> done{0};
  for (const Task& task : tasks)
    pool.submit([&, task] {
      run_task(task);
      if (spec.progress)
        spec.progress(done.fetch_add(1, std::memory_order_relaxed) + 1,
                      tasks.size());
    });
  pool.wait();
  return cells;
}

}  // namespace gcaching::sim
