#include "core/simulator.hpp"

#include "util/contracts.hpp"

namespace gcaching {

Simulation::Simulation(const BlockMap& map, ReplacementPolicy& policy,
                       std::size_t capacity)
    : map_(map), policy_(policy), cache_(map, capacity) {
  policy_.attach(map_, cache_);
}

void Simulation::access(ItemId item) {
  GC_HOT_REQUIRE(item < map_.num_items(),
                 "access to item outside the universe");
  ++stats_.accesses;
  if (cache_.contains(item)) {
    const HitKind kind = cache_.record_hit(item);
    ++stats_.hits;
    if (kind == HitKind::kSpatial)
      ++stats_.spatial_hits;
    else
      ++stats_.temporal_hits;
    policy_.on_hit(item);
    return;
  }
  ++stats_.misses;
  const std::uint64_t loaded_before = cache_.items_loaded();
  const std::uint64_t sideloads_before = cache_.sideloads();
  const std::uint64_t evictions_before = cache_.evictions();
  const std::uint64_t wasted_before = cache_.wasted_sideloads();
  cache_.begin_miss(item);
  policy_.on_miss(item);
  cache_.end_miss();
  stats_.items_loaded += cache_.items_loaded() - loaded_before;
  stats_.sideloads += cache_.sideloads() - sideloads_before;
  stats_.evictions += cache_.evictions() - evictions_before;
  stats_.wasted_sideloads += cache_.wasted_sideloads() - wasted_before;
}

void Simulation::run(const Trace& trace) {
  for (const ItemId item : trace.accesses()) access(item);
}

SimStats simulate(const BlockMap& map, const Trace& trace,
                  ReplacementPolicy& policy, std::size_t capacity) {
  Simulation sim(map, policy, capacity);  // attach() first,
  policy.prepare(trace);                  // then offline knowledge,
  sim.run(trace);                         // then the run.
  return sim.stats();
}

SimStats simulate(const Workload& workload, ReplacementPolicy& policy,
                  std::size_t capacity) {
  GC_REQUIRE(workload.map != nullptr, "workload has no block map");
  return simulate(*workload.map, workload.trace, policy, capacity);
}

}  // namespace gcaching
