// SHARDS-style spatial-hash trace sampling.
//
// Waldspurger et al. [FAST'15] showed that miss-ratio curves can be
// estimated from a tiny hash-sampled subset of a trace: keep a reference
// iff hash(key) < rate * 2^64, run the cache simulation on the filtered
// trace at a capacity scaled by the same rate, and rescale the counters.
// Because the filter is a fixed function of the key (not of time), every
// kept key contributes its *entire* reuse sequence, so stack distances in
// the sample are unbiased estimates of rate * the true distances.
//
// The granularity-change twist (this repo's reason to exist) is that the
// sampling unit must be the BLOCK, not the item: Block Caches and IBLP
// act on whole blocks, so a sample that kept item 7 but dropped item 8 of
// the same block would present the policies with a universe that cannot
// occur. Hashing the block id makes the sample block-consistent by
// construction — an item survives iff its whole block does — and both
// item- and block-granularity policies see a coherent sub-universe whose
// spatial structure matches the original.
//
// Two modes:
//  * fixed-rate  — `SampleConfig::rate` in (0, 1]; threshold is constant.
//  * fixed-size  — `SampleConfig::max_blocks > 0`; the threshold starts at
//    "accept everything" and is lowered by evicting the largest-hash block
//    whenever the distinct-block budget overflows (adaptive SHARDS). Since
//    the threshold only ever decreases, one pass suffices: accesses
//    accepted early under a looser threshold are compacted out at the end
//    by re-testing against the final threshold.
//
// `rate == 1.0` (and fixed-size with a budget no smaller than the distinct
// block count) keeps every access, and downstream results are bit-identical
// to the exact engines — pinned by tests/test_sample.cpp.
//
// The caller runs the sampler: `sample_trace` takes a map and its accesses
// (a Workload's trace or a TraceView's mapped records alike), and
// sim::run_sweep takes the sampled workloads plus each one's realized rate
// and unfiltered length through SweepSpec::presampled, which it uses to
// scale capacities and rescale counters.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/block_map.hpp"
#include "core/stats.hpp"
#include "core/trace.hpp"

namespace gcaching::locality {

/// 64-bit spatial hash of a block id. SplitMix64 finalizer (same constants
/// as util/rng.hpp) over the block id perturbed by `seed`: cheap, stateless,
/// and avalanching, so the accept set {b : hash(b) < T} is a uniform
/// pseudo-random subset of the block universe for any threshold T.
inline std::uint64_t sample_hash(BlockId block, std::uint64_t seed) noexcept {
  std::uint64_t z = static_cast<std::uint64_t>(block) + 1 +
                    (seed + 1) * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

struct SampleConfig {
  /// Fixed-rate mode: target sampling rate in (0, 1]. 1.0 keeps everything.
  double rate = 1.0;
  /// Fixed-size mode when > 0: cap on distinct sampled blocks; `rate` is
  /// ignored and the effective rate emerges from the data.
  std::size_t max_blocks = 0;
  /// Hash seed; distinct seeds give independent samples of the same trace.
  std::uint64_t seed = 1;
};

/// The block-accept predicate: accept iff hash < threshold (or everything,
/// for the exact-identity rate-1.0 case, where `threshold * 2^-64` could
/// not represent "all").
struct BlockFilter {
  std::uint64_t threshold = 0;
  std::uint64_t seed = 1;
  bool all = true;

  bool accepts(BlockId block) const noexcept {
    return all || sample_hash(block, seed) < threshold;
  }
  /// The fraction of the block universe this filter accepts in expectation.
  double rate() const noexcept {
    return all ? 1.0
               : static_cast<double>(threshold) * 0x1.0p-64;  // T / 2^64
  }
};

/// Fixed-rate filter for `rate`; rates >= 1.0 yield the accept-all filter.
BlockFilter make_filter(double rate, std::uint64_t seed);

/// A sampled trace plus everything needed to interpret results against the
/// original: the surviving accesses with their block ids (ready for
/// Trace::adopt_block_ids), the unfiltered access count, the filter that
/// produced it, and the observed distinct-block count.
struct SampledTrace {
  std::vector<ItemId> accesses;
  BlockIdVector block_ids;
  std::uint64_t total_accesses = 0;  ///< length of the unfiltered input
  BlockFilter filter;                ///< reusable accept predicate
  std::size_t sampled_blocks = 0;    ///< distinct blocks in the sample
  /// The fraction of the map's block universe the filter accepts: counted,
  /// not expected. It differs from the nominal rate by binomial noise (sd
  /// ~ sqrt(rate / num_blocks) relative), and that error feeds straight
  /// into the capacity scaling, so a sweep scales capacities by this
  /// (sim::SweepSpec::Presampled::rate). Exactly 1.0 for accept-all.
  double realized_rate = 1.0;

  double rate() const noexcept { return filter.rate(); }
};

/// The sampler: one pass over `accesses`, fixed-rate or fixed-size per
/// `cfg`. The accesses are read in kTraceChunkAccesses chunks, each mapped
/// to its block ids with BlockMap::block_ids_of into one reused chunk
/// buffer, so a memory-mapped trace (TraceView::accesses) is sampled in
/// the memory of the sample plus one chunk. Throws ContractViolation
/// "trace references item outside the map" for an item outside `map`.
SampledTrace sample_trace(const BlockMap& map,
                          std::span<const ItemId> accesses,
                          const SampleConfig& cfg);

/// Build the sampled sub-workload: the filtered trace over the ORIGINAL
/// partition (ids untouched, so geometry and block membership are exactly
/// the original's), with block ids adopted for the fast engines. Only
/// `original`'s map and name are read.
Workload make_sampled_workload(const Workload& original, SampledTrace sample);

/// Cache capacity to simulate the sample at: round(capacity * rate),
/// clamped to [min_capacity, capacity]. Pass the partition's
/// max_block_size() as `min_capacity` so block-granularity policies (which
/// require capacity >= B) stay legal at tiny rates.
std::size_t scaled_capacity(std::size_t capacity, double rate,
                            std::size_t min_capacity);

/// Rescale counters measured on a sample back to the full-trace scale:
/// multiply every counter by total_accesses / sampled.accesses (rounded),
/// then re-derive the aggregate counters so the SimStats internal
/// identities (hits + misses == accesses, temporal + spatial == hits) hold
/// exactly. When the sample kept every access this is the identity map —
/// the rate-1.0 bit-identity guarantee does not pass through any floating
/// point.
SimStats unsample_stats(const SimStats& sampled,
                        std::uint64_t total_accesses);

}  // namespace gcaching::locality
