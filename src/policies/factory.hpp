// Policy construction by name — the registry used by benches, examples and
// parameterized tests. Every spec is one row of kPolicyTable
// (policies/policy_table.hpp); each function here reads that table.
//
// Spec grammar:  <name>[:key=value[,key=value...]]
//   item-lru | item-fifo | item-lfu | item-clock | item-random[:seed=<n>] |
//   item-slru[:p=<frac>] | item-arc |
//   footprint[:cold_block=<0|1>] |
//   block-lru | block-fifo |
//   iblp[:i=<n>,b=<n>] | iblp-excl[:i=<n>,b=<n>] |
//   iblp-blockfirst[:i=<n>,b=<n>] |
//   gcm[:seed=<n>,sideload=<n>] | marking-item[:seed=<n>] |
//   marking-blockmark[:seed=<n>] |
//   athreshold[:a=<n>] |
//   belady-item | belady-block | belady-greedy-gc
//
// Keys are optional and may come in any order. An unknown key, a repeated
// key, or a value that does not parse fully into its key's type (unsigned
// decimal integers, `a` below 2^32, `cold_block` 0 or 1, `p` a decimal real)
// throws ContractViolation naming the spec and the key. For IBLP specs, `i`
// defaults to capacity/2 and `b` to capacity - i; each must be at most the
// capacity, and i + b must equal it.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/policy.hpp"
#include "core/stats.hpp"
#include "core/trace.hpp"

namespace gcaching {

/// Construct a policy from a spec string. `capacity` is the cache size the
/// policy will be attached to; size-dependent defaults (IBLP split) use it.
/// Throws ContractViolation on an unknown name or malformed spec.
std::unique_ptr<ReplacementPolicy> make_policy(const std::string& spec,
                                               std::size_t capacity);

/// All spec names accepted by make_policy (without parameters), for
/// enumeration in tests and `--help` text.
std::vector<std::string> known_policy_names();

/// Fast-path simulation of a policy spec: constructs the *concrete* policy
/// class the spec names and dispatches to the devirtualized
/// `simulate_fast<Policy>` engine (core/simulator.hpp) through
/// visit_policy. SimStats are bit-identical to
/// `simulate(map, trace, *make_policy(spec, capacity), capacity)`; the
/// differential harness in tests/test_fast_sim.cpp enforces this for every
/// spec. `block_ids` must hold each access's block id (see
/// Trace::precompute_block_ids / compute_block_ids).
SimStats simulate_fast_spec(const std::string& spec, const BlockMap& map,
                            const Trace& trace,
                            std::span<const BlockId> block_ids,
                            std::size_t capacity);

/// Overload that uses the trace's cached block ids when present, resolving
/// them in a one-off pass otherwise.
SimStats simulate_fast_spec(const std::string& spec, const BlockMap& map,
                            const Trace& trace, std::size_t capacity);

/// Workload-flavored overload.
SimStats simulate_fast_spec(const std::string& spec, const Workload& workload,
                            std::size_t capacity);

/// True when `spec`'s capacity column over `map` collapses into ONE
/// stack-distance pass (locality/stack_column.hpp): item-lru always, and
/// block-lru on a uniform partition — the two policies that obey Mattson
/// inclusion. The one eligibility rule behind both
/// simulate_column_spec and run_sweep's task list.
bool stack_column_eligible(const std::string& spec, const BlockMap& map);

/// Every capacity of one (workload, policy) row: stats[i] is bit-identical
/// to `simulate_fast_spec(spec, map, trace, block_ids, capacities[i])`.
/// Eligible rows (stack_column_eligible) take the stack-distance pass, which
/// checking builds cross-check cell by cell against per-cell
/// `simulate_fast`; every other row runs per-cell `simulate_fast_spec`. A
/// column records no timeline.
std::vector<SimStats> simulate_column_spec(
    const std::string& spec, const BlockMap& map, const Trace& trace,
    std::span<const BlockId> block_ids,
    std::span<const std::size_t> capacities);

/// Estimated simulation cost of `accesses` requests under `spec`, in
/// arbitrary-but-comparable units (normalized seconds-ish). The sweep
/// scheduler orders tasks longest-estimated-first with it; constants are
/// calibrated from BENCH_throughput.json's fast-engine throughputs, and an
/// unknown name gets a conservative middle-of-the-pack estimate.
double estimated_sim_cost(const std::string& spec, std::uint64_t accesses);

}  // namespace gcaching
