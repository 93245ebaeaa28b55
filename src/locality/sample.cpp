#include "locality/sample.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <sstream>
#include <unordered_set>
#include <utility>

#include "util/contracts.hpp"

namespace gcaching::locality {

BlockFilter make_filter(double rate, std::uint64_t seed) {
  GC_REQUIRE(rate > 0.0, "sampling rate must be positive");
  BlockFilter f;
  f.seed = seed;
  if (rate >= 1.0) return f;  // accept-all; exactness must not touch FP
  f.all = false;
  const double scaled = rate * 0x1.0p64;
  f.threshold = scaled >= 0x1.0p64
                    ? std::numeric_limits<std::uint64_t>::max()
                    : static_cast<std::uint64_t>(scaled);
  if (f.threshold == 0) f.threshold = 1;
  return f;
}

namespace {

/// The fraction of a concrete `num_blocks`-block universe the filter
/// accepts (SampledTrace::realized_rate).
double realized_rate(const BlockFilter& f, std::size_t num_blocks) {
  GC_REQUIRE(num_blocks > 0, "block universe must be non-empty");
  if (f.all) return 1.0;
  std::size_t accepted = 0;
  for (BlockId b = 0; b < static_cast<BlockId>(num_blocks); ++b)
    if (f.accepts(b)) ++accepted;
  // An unlucky threshold can accept nothing; report the expectation then so
  // capacity scaling stays positive (the sample is empty anyway).
  if (accepted == 0) return f.rate();
  return static_cast<double>(accepted) / static_cast<double>(num_blocks);
}

}  // namespace

SampledTrace sample_trace(const BlockMap& map,
                          std::span<const ItemId> accesses,
                          const SampleConfig& cfg) {
  const bool fixed_size = cfg.max_blocks > 0;
  SampledTrace s;
  s.total_accesses = accesses.size();
  BlockFilter& f = s.filter;
  if (fixed_size)
    f.seed = cfg.seed;
  else
    f = make_filter(cfg.rate, cfg.seed);
  // Fixed-size (adaptive SHARDS) state, carried across chunks. The
  // threshold starts at accept-everything and is lowered by evicting the
  // largest-hash member whenever the distinct-block budget overflows;
  // because it only ever decreases, accesses admitted early under a looser
  // threshold are compacted out after the pass by re-testing against the
  // final one. Largest hash on top: the member to shed.
  std::priority_queue<std::pair<std::uint64_t, BlockId>> heap;
  std::unordered_set<BlockId> in_sample;
  // Distinct blocks can't exceed the access count, so an over-generous
  // budget (e.g. "effectively unlimited") must not pre-allocate for it.
  if (fixed_size)
    in_sample.reserve(
        std::min<std::size_t>(cfg.max_blocks, accesses.size()) + 1);
  BlockIdVector ids(std::min(kTraceChunkAccesses, accesses.size()));
  for (std::size_t first = 0; first < accesses.size();
       first += kTraceChunkAccesses) {
    const std::span<const ItemId> items = accesses.subspan(
        first, std::min(kTraceChunkAccesses, accesses.size() - first));
    map.block_ids_of(items, ids.data());  // range-checks every item
    GC_HOT_REGION_BEGIN(sample_chunk)
    for (std::size_t i = 0; i < items.size(); ++i) {
      const BlockId block = ids[i];
      if (!f.accepts(block)) continue;
      if (fixed_size && in_sample.insert(block).second) {
        heap.emplace(sample_hash(block, cfg.seed), block);
        if (in_sample.size() > cfg.max_blocks) {
          const auto [hmax, bmax] = heap.top();
          heap.pop();
          in_sample.erase(bmax);
          f.threshold = hmax;
          f.all = false;
          if (bmax == block) continue;  // the newcomer itself was the largest
        }
      }
      s.accesses.push_back(items[i]);
      s.block_ids.push_back(block);
    }
    GC_HOT_REGION_END(sample_chunk)
  }
  if (fixed_size && !f.all) {
    // Compact: drop survivors of looser early thresholds.
    std::size_t w = 0;
    for (std::size_t i = 0; i < s.accesses.size(); ++i) {
      if (f.accepts(s.block_ids[i])) {
        s.accesses[w] = s.accesses[i];
        s.block_ids[w] = s.block_ids[i];
        ++w;
      }
    }
    s.accesses.resize(w);
    s.block_ids.resize(w);
  }
  const std::unordered_set<BlockId> distinct(s.block_ids.begin(),
                                             s.block_ids.end());
  s.sampled_blocks = distinct.size();
  s.realized_rate = realized_rate(f, map.num_blocks());
  return s;
}

Workload make_sampled_workload(const Workload& original, SampledTrace sample) {
  GC_REQUIRE(original.map != nullptr, "workload has no block map");
  Workload w;
  w.map = original.map;
  std::ostringstream name;
  name << original.name << " [sampled rate=" << sample.rate()
       << " blocks=" << sample.sampled_blocks << "]";
  w.name = name.str();
  w.trace = Trace(std::move(sample.accesses));
  w.trace.adopt_block_ids(*w.map, std::move(sample.block_ids));
  return w;
}

std::size_t scaled_capacity(std::size_t capacity, double rate,
                            std::size_t min_capacity) {
  GC_REQUIRE(rate > 0.0 && rate <= 1.0, "sampling rate must be in (0, 1]");
  GC_REQUIRE(capacity > 0, "capacity must be positive");
  if (rate >= 1.0) return capacity;
  auto scaled = static_cast<std::size_t>(
      std::llround(static_cast<double>(capacity) * rate));
  scaled = std::max<std::size_t>(scaled, 1);
  scaled = std::max(scaled, min_capacity);
  return std::min(scaled, capacity);
}

SimStats unsample_stats(const SimStats& sampled,
                        std::uint64_t total_accesses) {
  GC_REQUIRE(sampled.accesses <= total_accesses,
             "sample cannot be larger than the trace it came from");
  if (sampled.accesses == total_accesses) return sampled;  // exact run
  SimStats out;
  out.accesses = total_accesses;
  if (sampled.accesses == 0) return out;
  const double f = static_cast<double>(total_accesses) /
                   static_cast<double>(sampled.accesses);
  const auto scale = [f](std::uint64_t v) {
    return static_cast<std::uint64_t>(
        std::llround(static_cast<double>(v) * f));
  };
  // Scale the independent counters, then derive the complements so the
  // SimStats identities (hits + misses == accesses, temporal + spatial ==
  // hits, wasted <= sideloads) hold exactly after rounding.
  out.misses = std::min(scale(sampled.misses), total_accesses);
  out.hits = total_accesses - out.misses;
  out.spatial_hits = std::min(scale(sampled.spatial_hits), out.hits);
  out.temporal_hits = out.hits - out.spatial_hits;
  out.items_loaded = scale(sampled.items_loaded);
  out.sideloads = scale(sampled.sideloads);
  out.evictions = scale(sampled.evictions);
  out.wasted_sideloads = std::min(scale(sampled.wasted_sideloads),
                                  out.sideloads);
  return out;
}

}  // namespace gcaching::locality
