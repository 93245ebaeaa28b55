// Spec-string construction of gcached runtimes.
//
// `make_concurrent_cache` visits the policy table as the factory's
// `simulate_fast_spec` does (visit_policy, policies/policy_table.hpp): it
// instantiates `ShardedCache<Policy>` for the concrete class a spec names,
// with the spec's parameters, so the per-shard transitions are the
// devirtualized fast_step the differential tests pin.
//
// The ported set and the escape hatch: a policy can shard iff its decisions
// are a function of (block map, its own shard's cache, its own shard's
// access stream) — then per-shard instances are just S independent copies of
// the policy running on S disjoint sub-caches. That holds for the recency /
// insertion-order families ported here. It does NOT hold for
//   * offline policies (belady-*): prepare() consumes the whole future
//     trace, which no live runtime has;
//   * capacity-coupled policies (iblp*, athreshold): their layer splits and
//     thresholds are derived from the TOTAL capacity, and quantizing them
//     per shard silently changes the policy being measured;
//   * policies whose published numbers depend on a single global structure
//     (item-arc's ghost lists, footprint's global frequency state): sharding
//     them is a research question, not an adapter.
// Such specs throw ContractViolation naming the shardable ones; the
// supported set is `supported_concurrent_specs()` (known_policy_names()
// filtered by gcached.cpp's list of shardable classes), so tests and tools
// never hard-code it. See docs/CONCURRENCY.md ("Which policies shard").
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/block_map.hpp"
#include "gcached/sharded_cache.hpp"

namespace gcaching::gcached {

/// Specs accepted by make_concurrent_cache, in factory-spec syntax.
std::vector<std::string> supported_concurrent_specs();

/// CLI-level validation of the gcached runtime knobs, shared by `gcsim
/// gcached` and its tests so the exact diagnostics are pinned. Returns ""
/// when the request is valid, else a message naming the offending flag
/// (`--shards`, `--threads`). Signed on purpose: the CLI parses signed so a
/// user's `-4` is rejected here instead of wrapping to 2^64-4.
std::string validate_gcached_request(long long shards, long long threads);

/// `--fill-us` of `gcsim gcached` and bench_gcached as fill_latency_ns,
/// rounded down; nullopt unless finite, non-negative and below 2^63 ns
/// (what the fill's std::chrono::nanoseconds holds), where a cast is UB.
std::optional<std::uint64_t> fill_us_to_ns(double fill_us);

/// Construct a sharded runtime for `spec` over `map` with `cfg`. Throws
/// ContractViolation for specs that cannot shard (see file comment).
std::unique_ptr<ConcurrentCache> make_concurrent_cache(
    const std::string& spec, std::shared_ptr<const BlockMap> map,
    const GcachedConfig& cfg);

}  // namespace gcaching::gcached
