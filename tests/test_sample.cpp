// SHARDS-style spatial sampling (locality/sample.hpp).
//
// The load-bearing guarantees, in order:
//   1. rate == 1.0 (and a fixed-size budget that never evicts) is BIT-
//      IDENTICAL to the exact engines, end to end through run_sweep, at any
//      thread count — sampling must never perturb an exact run.
//   2. The sample is block-consistent: an item access survives iff its
//      whole block does, so item- and block-granularity policies see a
//      coherent sub-universe.
//   3. Fixed-size eviction-and-rescale is equivalent to fixed-rate at the
//      final threshold — the one-pass adaptive filter ends exactly where a
//      two-pass filter would.
//   4. Seeded error bound: at rate 0.01 the estimated miss ratios stay
//      within 0.02 of exact on a zipf workload (deterministic given the
//      seed; this is the acceptance target of docs/PERF.md's sampling
//      section).
// Like test_fast_sim, this binary is built a second time against the
// GC_FAST_SIM library copy (test_sample_nochecks), so both contract
// configurations cover the rate-1.0 identity and the loud failure on a
// record outside the map.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/simulator.hpp"
#include "core/trace_io.hpp"
#include "locality/sample.hpp"
#include "policies/factory.hpp"
#include "sim/runner.hpp"
#include "traces/synthetic.hpp"

namespace gcaching {
namespace {

using locality::BlockFilter;
using locality::SampleConfig;
using locality::SampledTrace;

void expect_identical(const SimStats& a, const SimStats& b) {
  EXPECT_EQ(a.accesses, b.accesses);
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.temporal_hits, b.temporal_hits);
  EXPECT_EQ(a.spatial_hits, b.spatial_hits);
  EXPECT_EQ(a.items_loaded, b.items_loaded);
  EXPECT_EQ(a.sideloads, b.sideloads);
  EXPECT_EQ(a.evictions, b.evictions);
  EXPECT_EQ(a.wasted_sideloads, b.wasted_sideloads);
}

SampledTrace sample_of(const Workload& w, const SampleConfig& cfg) {
  return locality::sample_trace(*w.map, w.trace.accesses(), cfg);
}

/// Samples every workload up front, as a sweep's caller does: returns the
/// sampled workloads and appends each one's provenance to `presampled`.
std::vector<Workload> presample(
    const std::vector<Workload>& workloads, const SampleConfig& cfg,
    std::vector<sim::SweepSpec::Presampled>& presampled) {
  std::vector<Workload> sampled;
  for (const Workload& w : workloads) {
    SampledTrace s = sample_of(w, cfg);
    presampled.push_back({s.realized_rate, s.total_accesses});
    sampled.push_back(locality::make_sampled_workload(w, std::move(s)));
  }
  return sampled;
}

// ---- filter basics --------------------------------------------------------

TEST(SampleFilter, RateOneKeepsEverything) {
  const Workload w = traces::zipf_blocks(64, 8, 3000, 0.9, 4, 1);
  SampleConfig cfg;
  cfg.rate = 1.0;
  const SampledTrace s = sample_of(w, cfg);
  EXPECT_EQ(s.accesses, w.trace.accesses());
  EXPECT_EQ(s.total_accesses, w.trace.size());
  EXPECT_TRUE(s.filter.all);
  EXPECT_DOUBLE_EQ(s.rate(), 1.0);
  EXPECT_EQ(s.sampled_blocks, w.distinct_blocks());
}

TEST(SampleFilter, FilterRateMatchesThreshold) {
  const BlockFilter half = locality::make_filter(0.5, 3);
  EXPECT_FALSE(half.all);
  EXPECT_NEAR(half.rate(), 0.5, 1e-12);
  const BlockFilter all = locality::make_filter(1.0, 3);
  EXPECT_TRUE(all.all);
  EXPECT_DOUBLE_EQ(all.rate(), 1.0);
}

TEST(SampleFilter, DistinctSeedsGiveDifferentSamples) {
  const Workload w = traces::zipf_blocks(256, 8, 4000, 0.9, 4, 1);
  SampleConfig a, b;
  a.rate = b.rate = 0.3;
  a.seed = 1;
  b.seed = 2;
  const SampledTrace sa = sample_of(w, a);
  const SampledTrace sb = sample_of(w, b);
  EXPECT_NE(sa.accesses, sb.accesses);
}

// Block consistency: for every block of the original trace, either all of
// its accesses survive or none do, and survival agrees with the filter
// predicate. This is what lets block-granularity policies run on a sample.
TEST(SampleFilter, SampleIsBlockConsistent) {
  const Workload w = traces::zipf_items(4096, 16, 20000, 0.9, 7);
  SampleConfig cfg;
  cfg.rate = 0.3;
  cfg.seed = 11;
  const SampledTrace s = sample_of(w, cfg);
  ASSERT_GT(s.accesses.size(), 0u);
  ASSERT_LT(s.accesses.size(), w.trace.size());
  ASSERT_EQ(s.block_ids.size(), s.accesses.size());

  std::unordered_set<BlockId> kept;
  for (std::size_t i = 0; i < s.accesses.size(); ++i) {
    const BlockId b = w.map->block_of(s.accesses[i]);
    EXPECT_EQ(s.block_ids[i], b);
    EXPECT_TRUE(s.filter.accepts(b));
    kept.insert(b);
  }
  EXPECT_EQ(kept.size(), s.sampled_blocks);
  // Every original access whose block the filter accepts must be present —
  // count them and compare (order is preserved by the one-pass filter).
  std::size_t expected = 0;
  for (const ItemId item : w.trace)
    if (s.filter.accepts(w.map->block_of(item))) ++expected;
  EXPECT_EQ(s.accesses.size(), expected);
}

// Sampling a gctrace's mapped records must equal sampling its materialized
// workload, at a rate and in fixed-size mode, and both must match a
// chunk-free reference. 600,000 accesses span three sampler chunks, the
// last ragged. Scrambled zipf over 2^18 blocks touches most blocks about
// twice, so most appear in one chunk only: the fixed-size heap and
// threshold must carry across chunks to end where one unchunked pass would.
TEST(SampleFilter, GctraceViewMatchesMaterializedWorkload) {
  const Workload w = traces::zipf_scramble(1u << 22, 16, 600'000, 0.5, 3);
  ASSERT_GT(w.trace.size(), 2 * kTraceChunkAccesses);
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "sample_view.gct")
          .string();
  save_trace_bin_file(path, w);
  const TraceView view(path);
  const Workload loaded = view.materialize();
  SampleConfig at_rate, fixed_size;
  at_rate.rate = 0.2;
  at_rate.seed = 5;
  fixed_size.max_blocks = 40;
  fixed_size.seed = 13;
  for (const SampleConfig& cfg : {at_rate, fixed_size}) {
    SCOPED_TRACE(cfg.max_blocks > 0 ? "fixed-size" : "rate");
    const SampledTrace from_view =
        locality::sample_trace(*view.make_map(), view.accesses(), cfg);
    const SampledTrace from_workload = sample_of(loaded, cfg);
    EXPECT_EQ(from_view.accesses, from_workload.accesses);
    EXPECT_EQ(from_view.block_ids, from_workload.block_ids);
    EXPECT_EQ(from_view.filter.threshold, from_workload.filter.threshold);
    EXPECT_EQ(from_view.realized_rate, from_workload.realized_rate);

    // Reference: every access whose block the final filter accepts.
    std::size_t kept = 0;
    std::unordered_set<BlockId> blocks;
    for (const ItemId item : w.trace) {
      const BlockId b = w.map->block_of(item);
      blocks.insert(b);
      if (from_view.filter.accepts(b)) ++kept;
    }
    EXPECT_EQ(from_view.accesses.size(), kept);
    ASSERT_LT(kept, w.trace.size());
    if (cfg.max_blocks == 0) continue;
    // Adaptive SHARDS keeps the max_blocks smallest-hash blocks of the whole
    // trace; its threshold is the next hash up.
    std::vector<std::uint64_t> hashes;
    for (const BlockId b : blocks)
      hashes.push_back(locality::sample_hash(b, cfg.seed));
    std::sort(hashes.begin(), hashes.end());
    EXPECT_EQ(from_view.sampled_blocks, cfg.max_blocks);
    EXPECT_EQ(from_view.filter.threshold, hashes[cfg.max_blocks]);
  }
}

// A record outside the header's universe must fail loudly in both sampling
// modes, as materializing the same file does, in every build.
TEST(SampleFilter, OutOfRangeRecordFailsLoudly) {
  // The gctrace layout (docs/FORMATS.md): magic, u32 version, u64
  // num_items, u64 block size, u64 record count, u64 name length, then one
  // u32 record per access. Record 64 is outside a 64-item universe.
  const std::vector<std::uint32_t> records = {0, 5, 63, 64, 1};
  std::string bytes = "GCTB";
  const auto put = [&bytes](std::uint64_t v, int width) {
    for (int i = 0; i < width; ++i)
      bytes.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  };
  put(1, 4);
  put(64, 8);
  put(16, 8);
  put(records.size(), 8);
  put(0, 8);
  for (const std::uint32_t r : records) put(r, 4);
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "sample_bad.gct")
          .string();
  std::ofstream(path, std::ios::binary)
      .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  const TraceView view(path);
  SampleConfig at_rate, fixed_size;
  at_rate.rate = 0.99;
  fixed_size.max_blocks = 2;
  for (const SampleConfig& cfg : {at_rate, fixed_size}) {
    SCOPED_TRACE(cfg.max_blocks > 0 ? "fixed-size" : "rate");
    try {
      (void)locality::sample_trace(*view.make_map(), view.accesses(), cfg);
      ADD_FAILURE() << "a record equal to num_items did not throw";
    } catch (const ContractViolation& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "trace references item outside the map"),
                std::string::npos)
          << e.what();
    }
  }
}

// ---- fixed-size (adaptive) mode -------------------------------------------

TEST(SampleFixedSize, GenerousBudgetNeverEvicts) {
  const Workload w = traces::zipf_blocks(128, 8, 5000, 0.9, 4, 1);
  SampleConfig cfg;
  cfg.max_blocks = 1u << 30;  // far above the distinct-block count
  const SampledTrace s = sample_of(w, cfg);
  EXPECT_TRUE(s.filter.all);
  EXPECT_DOUBLE_EQ(s.rate(), 1.0);
  EXPECT_EQ(s.accesses, w.trace.accesses());
}

// Eviction-and-rescale equivalence: the one-pass adaptive sample must be
// exactly the fixed-threshold filter of the original trace at the FINAL
// threshold — no stragglers from looser early thresholds may survive.
TEST(SampleFixedSize, EquivalentToFixedRateAtFinalThreshold) {
  const Workload w = traces::zipf_items(8192, 16, 30000, 0.9, 9);
  SampleConfig cfg;
  cfg.max_blocks = 40;
  cfg.seed = 13;
  const SampledTrace s = sample_of(w, cfg);
  ASSERT_FALSE(s.filter.all);
  EXPECT_LE(s.sampled_blocks, cfg.max_blocks);

  std::vector<ItemId> refiltered;
  BlockIdVector refiltered_ids;
  for (const ItemId item : w.trace) {
    const BlockId b = w.map->block_of(item);
    if (!s.filter.accepts(b)) continue;
    refiltered.push_back(item);
    refiltered_ids.push_back(b);
  }
  EXPECT_EQ(s.accesses, refiltered);
  EXPECT_EQ(s.block_ids, refiltered_ids);
}

// ---- capacity scaling & counter rescale -----------------------------------

TEST(SampleScaling, ScaledCapacityClampsToFloorAndOriginal) {
  EXPECT_EQ(locality::scaled_capacity(1000, 1.0, 16), 1000u);
  EXPECT_EQ(locality::scaled_capacity(1000, 0.1, 16), 100u);
  EXPECT_EQ(locality::scaled_capacity(1000, 0.001, 16), 16u);  // floor
  EXPECT_EQ(locality::scaled_capacity(8, 0.001, 16), 8u);  // never inflate
  EXPECT_GE(locality::scaled_capacity(3, 0.001, 0), 1u);  // never zero
}

TEST(SampleScaling, UnsampleIsIdentityOnFullRuns) {
  SimStats s;
  s.accesses = 1000;
  s.hits = 700;
  s.misses = 300;
  s.temporal_hits = 500;
  s.spatial_hits = 200;
  s.items_loaded = 900;
  s.sideloads = 600;
  s.evictions = 100;
  s.wasted_sideloads = 50;
  expect_identical(locality::unsample_stats(s, 1000), s);
}

TEST(SampleScaling, UnsampleRescalesAndKeepsIdentities) {
  SimStats s;
  s.accesses = 100;
  s.hits = 63;
  s.misses = 37;
  s.temporal_hits = 40;
  s.spatial_hits = 23;
  s.items_loaded = 90;
  s.sideloads = 60;
  s.evictions = 10;
  s.wasted_sideloads = 5;
  const SimStats out = locality::unsample_stats(s, 1000);
  EXPECT_EQ(out.accesses, 1000u);
  EXPECT_EQ(out.misses, 370u);
  EXPECT_EQ(out.hits + out.misses, out.accesses);
  EXPECT_EQ(out.temporal_hits + out.spatial_hits, out.hits);
  EXPECT_LE(out.wasted_sideloads, out.sideloads);
}

// ---- rate-1.0 bit-identity through the whole stack ------------------------

// Deliberately unsorted, mirroring test_sweep_batched: sampling must not
// introduce an ordering assumption.
const std::vector<std::size_t> kCapacities = {48, 16, 96, 24, 64, 32};
const std::vector<std::string> kSpecs = {"item-lru", "block-lru", "iblp"};

std::vector<SimStats> sweep_stats(const sim::SweepSpec& spec) {
  std::vector<SimStats> out;
  for (const sim::SweepCell& cell : sim::run_sweep(spec)) {
    EXPECT_EQ(cell.capacity,
              kCapacities[out.size() % kCapacities.size()]);
    out.push_back(cell.stats);
  }
  return out;
}

// run_sweep on workloads sampled at rate 1.0 and with a never-evicting
// fixed-size budget — both exercise the full sampling machinery (sampler
// pass, adopted block ids, capacity scaling, counter rescale) — must be
// bit-identical to the exact sweep, for stack and non-stack policies, at 1,
// 2, and hardware threads.
TEST(SampleSweepIdentity, RateOneBitIdenticalAllThreadCounts) {
  // B = 8 throughout: the smallest capacity (16) must satisfy IBLP's
  // block-layer >= B requirement at its default half/half split.
  const std::vector<Workload> workloads = {
      traces::zipf_items(2048, 8, 12000, 0.9, 1),
      traces::zipf_blocks(128, 8, 8000, 0.8, 4, 2)};
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{0}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    sim::SweepSpec exact;
    exact.workloads = &workloads;
    exact.policy_specs = kSpecs;
    exact.capacities = kCapacities;
    exact.threads = threads;
    const std::vector<SimStats> base = sweep_stats(exact);

    sim::SweepSpec rate_one = exact;
    const std::vector<Workload> all_kept =
        presample(workloads, SampleConfig{}, rate_one.presampled);
    rate_one.workloads = &all_kept;  // the accept-all filter at rate 1.0
    const std::vector<SimStats> same = sweep_stats(rate_one);

    sim::SweepSpec sampled = exact;
    SampleConfig budget;
    budget.max_blocks = 1u << 30;  // active sampler, zero evictions
    const std::vector<Workload> in_budget =
        presample(workloads, budget, sampled.presampled);
    sampled.workloads = &in_budget;
    const std::vector<SimStats> via_sampler = sweep_stats(sampled);

    ASSERT_EQ(base.size(), same.size());
    ASSERT_EQ(base.size(), via_sampler.size());
    for (std::size_t i = 0; i < base.size(); ++i) {
      SCOPED_TRACE("cell " + std::to_string(i));
      expect_identical(base[i], same[i]);
      expect_identical(base[i], via_sampler[i]);
    }
  }
}

// The verifying engine (use_fast_path = false) runs the same sampled-
// workload machinery; the identity must hold there too.
TEST(SampleSweepIdentity, RateOneBitIdenticalVerifyingEngine) {
  const std::vector<Workload> workloads = {
      traces::zipf_blocks(64, 8, 4000, 0.9, 4, 3)};
  sim::SweepSpec exact;
  exact.workloads = &workloads;
  exact.policy_specs = kSpecs;
  exact.capacities = kCapacities;
  exact.use_fast_path = false;
  exact.threads = 2;
  const std::vector<SimStats> base = sweep_stats(exact);
  sim::SweepSpec sampled = exact;
  SampleConfig budget;
  budget.max_blocks = 1u << 30;
  const std::vector<Workload> in_budget =
      presample(workloads, budget, sampled.presampled);
  sampled.workloads = &in_budget;
  const std::vector<SimStats> via_sampler = sweep_stats(sampled);
  ASSERT_EQ(base.size(), via_sampler.size());
  for (std::size_t i = 0; i < base.size(); ++i)
    expect_identical(base[i], via_sampler[i]);
}

// Presampled provenance with rate 1.0 and a full-length total must also be
// an exact identity (this is the gcsim streaming path's no-op case).
TEST(SampleSweepIdentity, PresampledFullRateIsIdentity) {
  const std::vector<Workload> workloads = {
      traces::zipf_blocks(64, 8, 4000, 0.9, 4, 5)};
  sim::SweepSpec exact;
  exact.workloads = &workloads;
  exact.policy_specs = kSpecs;
  exact.capacities = kCapacities;
  const std::vector<SimStats> base = sweep_stats(exact);
  sim::SweepSpec pre = exact;
  pre.presampled = {{1.0, workloads[0].trace.size()}};
  const std::vector<SimStats> same = sweep_stats(pre);
  ASSERT_EQ(base.size(), same.size());
  for (std::size_t i = 0; i < base.size(); ++i)
    expect_identical(base[i], same[i]);
}

// ---- seeded error bound at rate 0.01 --------------------------------------

// The acceptance target: on a mid-size zipf workload, miss ratios estimated
// from a 1% block sample stay within 0.02 absolute of exact, for both the
// item- and block-granularity stack policies. Deterministic: the sampler
// hash is seeded, so this pins concrete numbers rather than a distribution.
TEST(SampleErrorBound, RatePercentWithinTwoPercentMissRatio) {
  // zipf_scramble, not zipf_items: spatial sampling is a per-BLOCK coin
  // flip, so its error scales with the access share of the heaviest blocks,
  // and rank-ordered ids pack the zipf head into block 0 (~11% of all
  // accesses at theta 0.9) — fundamentally outside the estimator's regime
  // at a 1% rate. Scrambled ids spread the head uniformly; theta = 0.5
  // keeps the heaviest single block well under the rate. The bound holds
  // across sampler seeds (~2x margin at this one), not just a lucky draw —
  // see docs/PERF.md for the regime discussion.
  const std::vector<Workload> workloads = {
      traces::zipf_scramble(1u << 20, 16, 2000000, 0.5, 17)};
  sim::SweepSpec spec;
  spec.workloads = &workloads;
  spec.policy_specs = {"item-lru", "block-lru", "iblp"};
  spec.capacities = {8192, 32768, 131072, 524288};
  const std::vector<sim::SweepCell> exact = sim::run_sweep(spec);

  sim::SweepSpec sampled_spec = spec;
  SampleConfig cfg;
  cfg.rate = 0.01;
  cfg.seed = 42;
  const std::vector<Workload> samples =
      presample(workloads, cfg, sampled_spec.presampled);
  sampled_spec.workloads = &samples;
  const std::vector<sim::SweepCell> sampled = sim::run_sweep(sampled_spec);

  ASSERT_EQ(exact.size(), sampled.size());
  double max_err = 0.0;
  for (std::size_t i = 0; i < exact.size(); ++i) {
    EXPECT_EQ(sampled[i].capacity, exact[i].capacity);
    EXPECT_EQ(sampled[i].stats.accesses, exact[i].stats.accesses);
    const double err = std::abs(sampled[i].stats.miss_rate() -
                                exact[i].stats.miss_rate());
    EXPECT_LE(err, 0.02) << spec.policy_specs[exact[i].policy_index]
                         << " capacity " << exact[i].capacity;
    max_err = std::max(max_err, err);
  }
  // The sample must actually be a sample, not a fluke full pass.
  EXPECT_GT(max_err, 0.0);
}

}  // namespace
}  // namespace gcaching
