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
  // ---- Spatial-hash sampling (locality/sample.hpp) ------------------------
  // When active, each workload is filtered ONCE through the block-consistent
  // SHARDS sampler, every engine (stack pass, per-cell, verifying) runs on
  // the filtered trace at capacities scaled by the workload's effective rate,
  // and the resulting counters are rescaled back to full-trace estimates.
  // Cells still report the ORIGINAL capacity. `sample_rate == 1.0` with
  // `sample_blocks == 0` bypasses sampling entirely — results are
  // bit-identical to an unsampled sweep (pinned by tests/test_sample.cpp).
  /// Fixed-rate sampling: keep blocks with hash < rate * 2^64. In (0, 1].
  double sample_rate = 1.0;
  /// Fixed-size sampling when > 0: cap on distinct sampled blocks per
  /// workload (adaptive threshold); `sample_rate` is then ignored.
  std::size_t sample_blocks = 0;
  /// Sampler hash seed; distinct seeds give independent samples.
  std::uint64_t sample_seed = 1;
  /// Provenance of a workload the CALLER already ran through the sampler
  /// (e.g. gcsim streaming a binary trace through locality::sample_view so
  /// the full trace is never materialized): the effective rate and the
  /// unfiltered access count, which the runner still needs for capacity
  /// scaling and counter rescale.
  struct Presampled {
    double rate = 1.0;
    std::uint64_t total_accesses = 0;
  };
  /// One entry per workload when the caller pre-filtered them; must be
  /// empty otherwise, and is mutually exclusive with sample_rate /
  /// sample_blocks (the runner would sample an already-sampled trace).
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
