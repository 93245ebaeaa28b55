#include "locality/sample.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <sstream>
#include <unordered_set>
#include <utility>

#include "core/trace_io.hpp"
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

namespace {

/// Wrap a finished filter pass: move the survivors over, count the distinct
/// blocks that actually appear (one pass over the sample, not the input).
SampledTrace finalize(FilteredTrace ft, const BlockFilter& f) {
  SampledTrace s;
  s.accesses = std::move(ft.accesses);
  s.block_ids = std::move(ft.block_ids);
  s.total_accesses = ft.total_accesses;
  s.filter = f;
  const std::unordered_set<BlockId> distinct(s.block_ids.begin(),
                                             s.block_ids.end());
  s.sampled_blocks = distinct.size();
  return s;
}

/// Fixed-size (adaptive SHARDS) pass, generic over how the block id of
/// access `i` is obtained. The threshold starts at accept-everything and is
/// lowered by evicting the largest-hash member whenever the distinct-block
/// budget overflows; because it only ever decreases, accesses admitted
/// early under a looser threshold can be compacted out afterwards by
/// re-testing against the final one — the whole input is read exactly once.
template <typename BlockAt>
SampledTrace sample_fixed_size(std::span<const ItemId> accesses,
                               BlockAt&& block_at, const SampleConfig& cfg) {
  GC_REQUIRE(cfg.max_blocks > 0, "fixed-size sampling needs a block budget");
  FilteredTrace out;
  out.total_accesses = accesses.size();
  BlockFilter f;
  f.seed = cfg.seed;
  // Largest hash on top: the member to shed when the budget overflows.
  std::priority_queue<std::pair<std::uint64_t, BlockId>> heap;
  std::unordered_set<BlockId> in_sample;
  // Distinct blocks can't exceed the access count, so an over-generous
  // budget (e.g. "effectively unlimited") must not pre-allocate for it.
  in_sample.reserve(
      std::min<std::size_t>(cfg.max_blocks, accesses.size()) + 1);
  GC_HOT_REGION_BEGIN(adaptive_sample_loop)
  for (std::size_t i = 0; i < accesses.size(); ++i) {
    const BlockId block = block_at(i);
    const std::uint64_t h = sample_hash(block, cfg.seed);
    if (!f.all && h >= f.threshold) continue;
    if (in_sample.insert(block).second) {
      heap.emplace(h, block);
      if (in_sample.size() > cfg.max_blocks) {
        const auto [hmax, bmax] = heap.top();
        heap.pop();
        in_sample.erase(bmax);
        f.threshold = hmax;
        f.all = false;
        if (bmax == block) continue;  // the newcomer itself was the largest
      }
    }
    out.accesses.push_back(accesses[i]);
    out.block_ids.push_back(block);
  }
  GC_HOT_REGION_END(adaptive_sample_loop)
  if (!f.all) {
    // Compact: drop survivors of looser early thresholds.
    std::size_t w = 0;
    for (std::size_t i = 0; i < out.accesses.size(); ++i) {
      if (sample_hash(out.block_ids[i], cfg.seed) < f.threshold) {
        out.accesses[w] = out.accesses[i];
        out.block_ids[w] = out.block_ids[i];
        ++w;
      }
    }
    out.accesses.resize(w);
    out.block_ids.resize(w);
  }
  return finalize(std::move(out), f);
}

}  // namespace

SampledTrace sample_trace(std::span<const ItemId> accesses,
                          std::span<const BlockId> block_ids,
                          const SampleConfig& cfg) {
  GC_REQUIRE(block_ids.size() == accesses.size(),
             "one block id per access is required");
  if (cfg.max_blocks > 0) {
    return sample_fixed_size(
        accesses, [&](std::size_t i) { return block_ids[i]; }, cfg);
  }
  const BlockFilter f = make_filter(cfg.rate, cfg.seed);
  return finalize(
      filter_trace(accesses, block_ids,
                   [&](BlockId b) { return f.accepts(b); }),
      f);
}

SampledTrace sample_trace_uniform(std::span<const ItemId> accesses,
                                  std::size_t block_size,
                                  const SampleConfig& cfg) {
  GC_REQUIRE(block_size > 0, "block size must be positive");
  if (cfg.max_blocks > 0) {
    return sample_fixed_size(
        accesses,
        [&](std::size_t i) {
          return static_cast<BlockId>(accesses[i] / block_size);
        },
        cfg);
  }
  const BlockFilter f = make_filter(cfg.rate, cfg.seed);
  return finalize(
      filter_trace_uniform(accesses, block_size,
                           [&](BlockId b) { return f.accepts(b); }),
      f);
}

SampledTrace sample_workload(const Workload& w, const SampleConfig& cfg) {
  GC_REQUIRE(w.map != nullptr, "workload has no block map");
  BlockIdVector storage;
  const std::span<const BlockId> ids =
      resolve_block_ids(*w.map, w.trace, storage);
  return sample_trace(w.trace.accesses(), ids, cfg);
}

SampledTrace sample_view(const TraceView& view, const SampleConfig& cfg) {
  return sample_trace_uniform(
      view.accesses(), static_cast<std::size_t>(view.block_size()), cfg);
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
