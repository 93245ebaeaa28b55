#include "obs/timeline.hpp"

#include <algorithm>

#include "core/simulator.hpp"
#include "util/contracts.hpp"

namespace gcaching::obs {

std::vector<Snapshot> record_timeline(const BlockMap& map, const Trace& trace,
                                      ReplacementPolicy& policy,
                                      std::size_t capacity,
                                      std::uint64_t window, Monitor& monitor) {
  // A running monitor would read the simulation from its own thread.
  GC_REQUIRE(!monitor.running(), "a timeline's monitor must not be running");
  const std::vector<ItemId>& accesses = trace.accesses();
  const std::uint64_t n = accesses.size();
  if (window == kAutoWindow)
    window = std::max<std::uint64_t>(1, n / kAutoTargetWindows);
  Simulation sim(map, policy, capacity);  // attach() first,
  policy.prepare(trace);                  // then offline knowledge.
  monitor.attach_shards([&sim] {
    ShardCounters run;
    run.stats = sim.stats();
    run.residency = sim.cache().occupancy();
    return std::vector<ShardCounters>{run};
  });
  struct Detach {
    Monitor& monitor;
    ~Detach() { monitor.attach_shards({}); }
  } detach{monitor};
  std::vector<Snapshot> windows;
  for (std::uint64_t start = 0; start < n; start += window) {
    const std::uint64_t end = std::min(n, start + window);
    for (std::uint64_t i = start; i < end; ++i) sim.access(accesses[i]);
    windows.push_back(monitor.harvest_now());
  }
  return windows;
}

}  // namespace gcaching::obs
