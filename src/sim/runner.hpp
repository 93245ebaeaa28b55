// Declarative sweep runner: (workload, policy spec, capacity) grid ->
// per-cell SimStats, evaluated in parallel.
//
// Policies are constructed fresh per cell from their factory spec, so cells
// are fully independent and the sweep parallelizes trivially. Workloads are
// shared read-only (BlockMap and Trace are immutable after construction).
//
// One scheduler serves both engines. Each (workload, policy) row that takes
// the stack-distance pass (stack_column_eligible: item-lru; block-lru on a
// uniform partition) is one task computing every capacity at once; every
// other cell is its own task. Tasks go out longest-estimated-first
// (estimated_sim_cost; the factory's per-policy costs skew ~17x), so the
// slowest tasks never start last and strand the pool. The fast path runs
// simulate_column_spec / simulate_fast_spec; the verifying path runs
// `simulate` per cell. Both produce bit-identical SimStats in identical
// row-major order.
//
// The runner does not sample: a caller that wants a sampled sweep samples
// each workload itself (locality/sample.hpp) and passes the samples with
// their provenance in SweepSpec::presampled.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/stats.hpp"
#include "core/trace.hpp"

namespace gcaching::sim {

struct SweepCell {
  std::size_t workload_index = 0;
  std::size_t policy_index = 0;
  std::size_t capacity = 0;
  SimStats stats;
};

struct SweepSpec {
  /// Workloads under test (read-only; shared across cells).
  const std::vector<Workload>* workloads = nullptr;
  /// Policy factory specs (see policies/factory.hpp).
  std::vector<std::string> policy_specs;
  /// Cache capacities; the full cross product is evaluated.
  std::vector<std::size_t> capacities;
  /// 0 = hardware concurrency.
  std::size_t threads = 0;
  /// Use the devirtualized fast-path engine (simulate_fast_spec) with
  /// per-workload precomputed block ids. Produces bit-identical SimStats to
  /// the verifying engine — switch off to exercise the step-wise
  /// `Simulation` path instead (e.g. when debugging a new policy).
  bool use_fast_path = true;
  /// Provenance of workloads the caller ran through the sampler
  /// (locality::sample_trace), one entry per workload: the realized rate
  /// and the unfiltered access count. Each cell then runs at its capacity
  /// scaled by the rate, its counters are rescaled to full-trace estimates,
  /// and it still reports the ORIGINAL capacity. Empty: no sampling, and
  /// an entry of rate 1.0 at the full length is bit-identical to that
  /// (pinned by tests/test_sample.cpp).
  struct Presampled {
    double rate = 1.0;
    std::uint64_t total_accesses = 0;
  };
  std::vector<Presampled> presampled;
  /// Optional coarse progress hook, invoked as tasks complete with
  /// (done, total) — a task is a stack-pass row or a single cell.
  /// Called from worker threads (possibly concurrently): the callback must
  /// be thread-safe and cheap. Backs `gcsim --progress`.
  std::function<void(std::size_t done, std::size_t total)> progress;
};

/// Runs the full cross product and returns cells in deterministic
/// (workload, policy, capacity) row-major order.
std::vector<SweepCell> run_sweep(const SweepSpec& spec);

}  // namespace gcaching::sim
