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
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/stats.hpp"
#include "core/trace.hpp"

namespace gcaching {
class TraceView;  // core/trace_io.hpp
}

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
/// not represent "all"). Exposed so the sweep runner and tools can share
/// one filter definition with the sampler.
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

/// The fraction of a concrete `num_blocks`-block universe the filter
/// actually accepts — counted, not expected. The realized fraction differs
/// from the nominal rate by binomial noise (sd ~ sqrt(rate / num_blocks)
/// relative), and that error feeds straight into the capacity scaling, so
/// the sweep runner scales by this instead of `BlockFilter::rate()`
/// whenever the universe is known. Returns exactly 1.0 for accept-all.
double realized_rate(const BlockFilter& f, std::size_t num_blocks);

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

  double rate() const noexcept { return filter.rate(); }
};

/// One-pass sample of an access stream with precomputed per-access block
/// ids (the in-RAM Workload path). Fixed-rate or fixed-size per `cfg`.
SampledTrace sample_trace(std::span<const ItemId> accesses,
                          std::span<const BlockId> block_ids,
                          const SampleConfig& cfg);

/// Uniform-partition overload: block = item / block_size, derived on the
/// fly, so only the access stream is read. This is the streaming path for
/// mmap-backed binary traces — one sequential pass, nothing materialized
/// but the sample itself.
SampledTrace sample_trace_uniform(std::span<const ItemId> accesses,
                                  std::size_t block_size,
                                  const SampleConfig& cfg);

/// Sample a whole workload (any partition; block ids are taken from the
/// trace's cache or resolved once).
SampledTrace sample_workload(const Workload& w, const SampleConfig& cfg);

/// Stream-sample a binary trace file view (core/trace_io.hpp) without
/// materializing it.
SampledTrace sample_view(const TraceView& view, const SampleConfig& cfg);

/// Build the sampled sub-workload: the filtered trace over the ORIGINAL
/// partition (ids untouched, so geometry and block membership are exactly
/// the original's), with block ids adopted for the fast engines.
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
