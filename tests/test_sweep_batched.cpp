// Differential tests for the sweep scheduler and its column entry point.
//
// Three ways to evaluate a (workload, policy) row's capacity column must be
// bit-identical on every SimStats counter:
//   1. per-cell   — simulate_fast_spec once per capacity,
//   2. column     — simulate_column_spec (item-lru / block-lru collapse into
//                   one stack-distance pass; every other spec runs per-cell),
//   3. verifying  — the step-wise `simulate` engine once per capacity.
// And run_sweep — stack-pass rows and single cells in one longest-first task
// list — must produce those same cells in the fast and verifying engines, at
// any thread count, sampled or not. Like test_fast_sim, this binary is built
// twice: against the normal libraries and against the GC_FAST_SIM
// configuration.
#include <gtest/gtest.h>

#include <cctype>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/simulator.hpp"
#include "locality/sample.hpp"
#include "locality/stack_column.hpp"
#include "policies/factory.hpp"
#include "sim/runner.hpp"
#include "traces/synthetic.hpp"

namespace gcaching {
namespace {

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

/// Every bare factory name plus parameterized variants, mirroring
/// test_fast_sim so the column dispatcher's argument plumbing is covered.
std::vector<std::string> specs_under_test() {
  std::vector<std::string> specs = known_policy_names();
  specs.push_back("item-slru:p=0.25");
  specs.push_back("item-random:seed=7");
  specs.push_back("footprint:cold_block=0");
  specs.push_back("gcm:seed=5,sideload=3");
  specs.push_back("marking-item:seed=9");
  specs.push_back("athreshold:a=4");
  return specs;
}

// Deliberately unsorted: columns must not assume ascending capacities.
const std::vector<std::size_t> kCapacities = {48, 16, 96, 24, 64, 32};

class ColumnDifferential : public ::testing::TestWithParam<std::string> {};

TEST_P(ColumnDifferential, AllThreePathsBitIdentical) {
  const std::string spec = GetParam();
  for (const std::uint64_t seed : {1u, 2u}) {
    const Workload w = traces::zipf_blocks(64, 8, 4000, 0.9, 4, seed);
    const BlockIdVector ids = compute_block_ids(*w.map, w.trace);
    const std::span<const BlockId> ids_span(ids);
    const std::vector<SimStats> column =
        simulate_column_spec(spec, *w.map, w.trace, ids_span, kCapacities);
    ASSERT_EQ(column.size(), kCapacities.size());
    for (std::size_t i = 0; i < kCapacities.size(); ++i) {
      SCOPED_TRACE(spec + " seed=" + std::to_string(seed) +
                   " capacity=" + std::to_string(kCapacities[i]));
      const SimStats cell = simulate_fast_spec(spec, *w.map, w.trace,
                                               ids_span, kCapacities[i]);
      const auto policy = make_policy(spec, kCapacities[i]);
      expect_identical(cell, column[i]);
      expect_identical(cell, simulate(w, *policy, kCapacities[i]));
    }
  }
}

std::string sanitize(const ::testing::TestParamInfo<std::string>& info) {
  std::string name;
  for (const char c : info.param)
    name += std::isalnum(static_cast<unsigned char>(c)) ? c : '_';
  return name;
}

INSTANTIATE_TEST_SUITE_P(AllFactorySpecs, ColumnDifferential,
                         ::testing::ValuesIn(specs_under_test()), sanitize);

// The stack derivation's spatial-hit and wasted-sideload accounting is the
// subtle part; stress it on workload shapes with extreme spatial profiles.
TEST(StackColumn, MatchesPerCellAcrossWorkloadShapes) {
  const std::vector<Workload> workloads = {
      traces::sequential_scan(256, 8, 3000),
      traces::hot_item_per_block(32, 8, 3000, 8, 0.3, 3),
      traces::pointer_chase(32, 8, 3000, 0.7, 0.02, 5),
      traces::strided_scan(256, 8, 3000, 8),
  };
  for (const Workload& w : workloads) {
    const BlockIdVector ids = compute_block_ids(*w.map, w.trace);
    for (const std::string spec : {"item-lru", "block-lru"}) {
      const std::vector<SimStats> column = simulate_column_spec(
          spec, *w.map, w.trace, std::span<const BlockId>(ids), kCapacities);
      for (std::size_t i = 0; i < kCapacities.size(); ++i) {
        SCOPED_TRACE(w.name + " " + spec +
                     " capacity=" + std::to_string(kCapacities[i]));
        expect_identical(
            simulate_fast_spec(spec, *w.map, w.trace,
                               std::span<const BlockId>(ids), kCapacities[i]),
            column[i]);
      }
    }
  }
}

/// 60 items in blocks of 8: the last block holds 4, so the partition is
/// not uniform.
Workload nonuniform_workload() {
  Workload w;
  w.map = std::make_shared<UniformBlockMap>(60, 8);
  std::vector<ItemId> accesses(2500);
  for (std::size_t i = 0; i < accesses.size(); ++i)
    accesses[i] = static_cast<ItemId>((i * 7 + i * i % 13) % 60);
  w.trace = Trace(std::move(accesses));
  w.name = "nonuniform";
  return w;
}

// Only the stack policies qualify, and block-lru only on a uniform partition.
TEST(StackColumn, EligibilityFollowsTheStackTrait) {
  const Workload uniform = traces::zipf_blocks(8, 4, 50, 0.8, 2, 1);
  const Workload ragged = nonuniform_workload();
  ASSERT_FALSE(locality::block_column_supported(*ragged.map));
  for (const std::string& spec : specs_under_test()) {
    SCOPED_TRACE(spec);
    const bool stack = spec == "item-lru" || spec == "block-lru";
    EXPECT_EQ(stack_column_eligible(spec, *uniform.map), stack);
    EXPECT_EQ(stack_column_eligible(spec, *ragged.map), spec == "item-lru");
  }
}

// A non-uniform partition is outside the block-lru stack derivation's model;
// simulate_column_spec must fall back to per-cell runs and still match.
TEST(StackColumn, NonUniformPartitionFallsBackToPerCell) {
  const Workload w = nonuniform_workload();
  const BlockIdVector ids = compute_block_ids(*w.map, w.trace);
  const std::vector<SimStats> column =
      simulate_column_spec("block-lru", *w.map, w.trace,
                           std::span<const BlockId>(ids), kCapacities);
  for (std::size_t i = 0; i < kCapacities.size(); ++i) {
    SCOPED_TRACE("capacity=" + std::to_string(kCapacities[i]));
    expect_identical(
        simulate_fast_spec("block-lru", *w.map, w.trace,
                           std::span<const BlockId>(ids), kCapacities[i]),
        column[i]);
  }
}

TEST(StackColumn, RejectsUnknownSpec) {
  const Workload w = traces::zipf_blocks(8, 4, 50, 0.8, 2, 1);
  const BlockIdVector ids = compute_block_ids(*w.map, w.trace);
  const std::vector<std::size_t> caps = {8};
  EXPECT_THROW(simulate_column_spec("no-such-policy", *w.map, w.trace,
                                    std::span<const BlockId>(ids), caps),
               ContractViolation);
}

void expect_same_cells(const std::vector<sim::SweepCell>& expected,
                       const std::vector<sim::SweepCell>& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    SCOPED_TRACE("cell=" + std::to_string(i));
    EXPECT_EQ(expected[i].workload_index, actual[i].workload_index);
    EXPECT_EQ(expected[i].policy_index, actual[i].policy_index);
    EXPECT_EQ(expected[i].capacity, actual[i].capacity);
    expect_identical(expected[i].stats, actual[i].stats);
  }
}

const std::vector<std::size_t> kThreadCounts = {
    1, 2, std::thread::hardware_concurrency()};

// run_sweep's longest-first schedule of stack rows and single cells must be
// invisible in the results: the fast sweep at every thread count equals
// per-cell simulate_fast_spec in row-major order, and the verifying sweep
// equals both. The non-uniform workload makes its block-lru row fall back
// from the stack pass to per-cell tasks.
TEST(SweepBatched, FastMatchesVerifyingAcrossThreadCounts) {
  const std::vector<Workload> workloads = {
      traces::zipf_blocks(64, 8, 3000, 0.9, 4, 1),
      traces::hot_item_per_block(32, 8, 2000, 8, 0.25, 2),
      nonuniform_workload(),
  };
  sim::SweepSpec spec;
  spec.workloads = &workloads;
  spec.policy_specs = {"item-lfu", "item-lru", "block-lru", "iblp",
                       "gcm:seed=5,sideload=3"};
  spec.capacities = {16, 32, 64};

  std::vector<sim::SweepCell> reference;
  for (std::size_t w = 0; w < workloads.size(); ++w)
    for (std::size_t p = 0; p < spec.policy_specs.size(); ++p)
      for (const std::size_t capacity : spec.capacities)
        reference.push_back(
            {w, p, capacity,
             simulate_fast_spec(spec.policy_specs[p], workloads[w],
                                capacity)});

  for (const std::size_t threads : kThreadCounts) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    spec.threads = threads;
    spec.use_fast_path = true;
    expect_same_cells(reference, sim::run_sweep(spec));
    spec.use_fast_path = false;
    expect_same_cells(reference, sim::run_sweep(spec));
  }
}

// Every factory spec, sampled at a fixed rate and at a fixed block budget:
// the fast sweep at 1 / 2 / hardware threads matches the verifying sweep,
// which runs the same sampled traces at the same scaled capacities.
TEST(SweepBatched, SampledFastMatchesVerifyingForEveryFactorySpec) {
  const Workload workload = traces::zipf_blocks(64, 8, 3000, 0.9, 4, 3);
  sim::SweepSpec spec;
  spec.policy_specs = specs_under_test();
  // Large enough that every scaled capacity keeps IBLP's block layer >= B.
  spec.capacities = {48, 96, 192};
  for (const bool fixed_size : {false, true}) {
    SCOPED_TRACE(fixed_size ? "max_blocks=32" : "rate=0.5");
    locality::SampleConfig cfg;
    cfg.rate = fixed_size ? 1.0 : 0.5;
    cfg.max_blocks = fixed_size ? 32 : 0;
    locality::SampledTrace s =
        locality::sample_trace(*workload.map, workload.trace.accesses(), cfg);
    spec.presampled = {{s.realized_rate, s.total_accesses}};
    const std::vector<Workload> sampled = {
        locality::make_sampled_workload(workload, std::move(s))};
    spec.workloads = &sampled;
    spec.use_fast_path = false;
    spec.threads = 0;
    const std::vector<sim::SweepCell> verified = sim::run_sweep(spec);
    spec.use_fast_path = true;
    for (const std::size_t threads : kThreadCounts) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      spec.threads = threads;
      expect_same_cells(verified, sim::run_sweep(spec));
    }
  }
}

TEST(SweepBatched, CostModelIsPositiveAndScalesWithLength) {
  for (const std::string& spec : specs_under_test()) {
    const double one = estimated_sim_cost(spec, 1000);
    EXPECT_GT(one, 0.0) << spec;
    EXPECT_DOUBLE_EQ(estimated_sim_cost(spec, 3000), 3.0 * one) << spec;
  }
  // Unknown names get a finite fallback, never a throw: scheduling is
  // best-effort.
  EXPECT_GT(estimated_sim_cost("someday-policy", 1000), 0.0);
}

}  // namespace
}  // namespace gcaching
