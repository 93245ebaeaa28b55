// Property-based invariants every replacement policy must satisfy, swept
// over the full policy registry (TEST_P / INSTANTIATE_TEST_SUITE_P) and a
// battery of workloads. These are the tests that catch Definition-1
// violations: the verifying simulator throws on any illegal load or
// capacity overflow, so a clean run *is* the property.
#include <gtest/gtest.h>

#include "core/simulator.hpp"
#include "offline/exact_opt.hpp"
#include "policies/factory.hpp"
#include "traces/synthetic.hpp"
#include "util/rng.hpp"

namespace gcaching {
namespace {

std::vector<Workload> property_workloads() {
  std::vector<Workload> out;
  out.push_back(traces::zipf_items(256, 8, 8000, 0.9, 101));
  out.push_back(traces::zipf_blocks(32, 8, 8000, 0.8, 4, 102));
  out.push_back(traces::sequential_scan(256, 8, 8000));
  out.push_back(traces::strided_scan(256, 8, 8000, 8));
  out.push_back(traces::hot_item_per_block(32, 8, 8000, 32, 0.1, 103));
  out.push_back(traces::working_set_phases(256, 8, 8000, 24, 500, 104));
  out.push_back(traces::scan_with_hotset(32, 8, 8000, 0.3, 0.9, 4, 105));
  return out;
}

class PolicyProperty : public ::testing::TestWithParam<std::string> {};

TEST_P(PolicyProperty, ObeysModelInvariantsOnAllWorkloads) {
  // Every access is validated by CacheContents; a contract violation fails
  // the test via the exception.
  for (const auto& w : property_workloads()) {
    auto policy = make_policy(GetParam(), 64);
    const SimStats s = simulate(w, *policy, 64);
    EXPECT_EQ(s.accesses, w.trace.size()) << w.name;
  }
}

TEST_P(PolicyProperty, StatsIdentitiesHold) {
  for (const auto& w : property_workloads()) {
    auto policy = make_policy(GetParam(), 64);
    const SimStats s = simulate(w, *policy, 64);
    EXPECT_EQ(s.hits + s.misses, s.accesses) << w.name;
    EXPECT_EQ(s.temporal_hits + s.spatial_hits, s.hits) << w.name;
    EXPECT_GE(s.items_loaded, s.misses) << w.name;
    EXPECT_EQ(s.items_loaded - s.misses, s.sideloads) << w.name;
    EXPECT_LE(s.wasted_sideloads, s.sideloads + 64) << w.name;
  }
}

TEST_P(PolicyProperty, OccupancyNeverExceedsCapacity) {
  const auto w = traces::zipf_blocks(32, 8, 4000, 0.8, 3, 321);
  auto policy = make_policy(GetParam(), 48);
  Simulation sim(*w.map, *policy, 48);
  policy->prepare(w.trace);
  for (ItemId it : w.trace) {
    sim.access(it);
    ASSERT_LE(sim.cache().occupancy(), 48u);
  }
}

TEST_P(PolicyProperty, ColdStartFirstAccessAlwaysMisses) {
  const auto w = traces::sequential_scan(64, 8, 1);
  auto policy = make_policy(GetParam(), 32);
  const SimStats s = simulate(w, *policy, 32);
  EXPECT_EQ(s.misses, 1u);
}

TEST_P(PolicyProperty, SingleItemWorkloadMissesOnce) {
  auto map = make_uniform_blocks(8, 4);
  Trace t;
  for (int rep = 0; rep < 50; ++rep) t.push(2);
  auto policy = make_policy(GetParam(), 8);
  const SimStats s = simulate(*map, t, *policy, 8);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 49u);
}

TEST_P(PolicyProperty, NeverBeatsExactOptOnSmallInstances) {
  SplitMix64 rng(777);
  auto map = make_uniform_blocks(12, 4);
  for (int round = 0; round < 3; ++round) {
    Trace t;
    for (int p = 0; p < 24; ++p) t.push(static_cast<ItemId>(rng.below(12)));
    const auto opt = exact_offline_opt(*map, t, 8);
    auto policy = make_policy(GetParam(), 8);
    const SimStats s = simulate(*map, t, *policy, 8);
    EXPECT_GE(s.misses, opt.cost) << "round " << round;
  }
}

TEST_P(PolicyProperty, WorksAtTightCapacity) {
  // capacity == 2B: tight geometry for block-granularity and layered
  // policies (IBLP's default even split needs b >= B).
  const auto w = traces::zipf_blocks(16, 4, 2000, 0.7, 2, 55);
  auto policy = make_policy(GetParam(), 8);
  EXPECT_NO_THROW(simulate(w, *policy, 8));
}

TEST_P(PolicyProperty, DeterministicRerun) {
  const auto w = traces::zipf_blocks(32, 8, 5000, 0.9, 3, 66);
  auto a = make_policy(GetParam(), 64);
  auto b = make_policy(GetParam(), 64);
  EXPECT_EQ(simulate(w, *a, 64).misses, simulate(w, *b, 64).misses);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PolicyProperty,
    ::testing::Values("item-lru", "item-fifo", "item-lfu", "item-clock",
                      "item-random", "item-slru", "item-arc",
                      "footprint", "footprint:cold_block=0", "block-lru",
                      "block-fifo", "iblp", "iblp-excl", "iblp-blockfirst",
                      "gcm", "marking-item", "marking-blockmark",
                      "athreshold:a=1", "athreshold:a=3",
                      "athreshold:a=1000", "belady-item", "belady-block",
                      "belady-greedy-gc"),
    [](const ::testing::TestParamInfo<std::string>& param_info) {
      std::string name = param_info.param;
      for (char& ch : name)
        if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
      return name;
    });

TEST(PolicyFactory, KnownNamesAllConstruct) {
  for (const auto& name : known_policy_names()) {
    const std::string spec =
        (name == "athreshold") ? "athreshold:a=2" : name;
    EXPECT_NO_THROW(make_policy(spec, 64)) << name;
  }
}

TEST(PolicyFactory, UnknownNameThrows) {
  EXPECT_THROW(make_policy("no-such-policy", 64), ContractViolation);
}

TEST(PolicyFactory, MalformedParamsThrow) {
  EXPECT_THROW(make_policy("iblp:i=10,b=20", 64), ContractViolation);
  EXPECT_THROW(make_policy("athreshold:a", 64), ContractViolation);
  // Each refusal names the spec and the offending key. An IBLP layer above
  // the capacity is refused before i + b is summed, where b = capacity - i
  // would wrap and pass the sum check. A key the spec does not accept, a
  // value with trailing junk or a sign, and a value wider than its type
  // (athreshold's a is 32-bit) are refused, not ignored or truncated.
  const auto expect_refused = [](const std::string& spec, const char* key) {
    SCOPED_TRACE(spec);
    try {
      make_policy(spec, 256);
      ADD_FAILURE() << "accepted";
    } catch (const ContractViolation& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("'" + spec + "'"), std::string::npos) << msg;
      EXPECT_NE(msg.find("key '" + std::string(key) + "'"), std::string::npos)
          << msg;
    }
  };
  expect_refused("iblp:i=300", "i");
  expect_refused("iblp-excl:i=257", "i");
  expect_refused("iblp-blockfirst:b=300", "b");
  expect_refused("gcm:seed=abc", "seed");
  expect_refused("gcm:sed=5", "sed");
  expect_refused("iblp:i=100,b=156,zz=1", "zz");
  expect_refused("item-lru:seed=1", "seed");
  expect_refused("marking-item:seed=-5", "seed");
  expect_refused("gcm:sideload=2x", "sideload");
  expect_refused("athreshold:a=4294967297", "a");
  expect_refused("item-slru:p=0.25x", "p");
  expect_refused("footprint:cold_block=2", "cold_block");
  expect_refused("gcm:seed=1,seed=2", "seed");
}

TEST(PolicyFactory, IblpDefaultsToEvenSplit) {
  auto p = make_policy("iblp", 64);
  EXPECT_EQ(p->name(), "iblp(i=32,b=32)");
}

TEST(PolicyFactory, SpecParametersRespected) {
  auto p = make_policy("iblp:i=48,b=16", 64);
  EXPECT_EQ(p->name(), "iblp(i=48,b=16)");
  auto q = make_policy("athreshold:a=7", 64);
  EXPECT_EQ(q->name(), "athreshold(a=7)");
}

}  // namespace
}  // namespace gcaching
