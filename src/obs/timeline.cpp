#include "obs/timeline.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/simulator.hpp"
#include "obs/counters.hpp"

namespace gcaching::obs {

SimStats StatsTimeline::window_sum() const {
  SimStats sum;
  for (const TimelineWindow& w : windows) sum += w.delta;
  return sum;
}

namespace {

std::string fmt_rate(double v) {
  std::ostringstream os;
  os.precision(6);
  os << v;
  return os.str();
}

}  // namespace

void StatsTimeline::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  for (std::size_t i = 0; i < windows.size(); ++i) {
    const TimelineWindow& w = windows[i];
    out << "{\"capacity\": " << capacity << ", \"window\": " << i
        << ", \"start\": " << w.start << ", \"length\": " << w.length
        << ", ";
    write_json_fields(out, counters(w.delta));
    out << ", \"miss_rate\": " << fmt_rate(w.miss_rate())
        << ", \"spatial_hit_share\": " << fmt_rate(w.spatial_hit_share())
        << ", \"wasted_sideload_share\": "
        << fmt_rate(w.wasted_sideload_share()) << "}\n";
  }
  out.close();
  if (!out) throw std::runtime_error("cannot write " + path);
}

StatsTimeline record_timeline(const BlockMap& map, const Trace& trace,
                              ReplacementPolicy& policy, std::size_t capacity,
                              std::uint64_t window) {
  const std::vector<ItemId>& accesses = trace.accesses();
  const std::uint64_t n = accesses.size();
  StatsTimeline tl;
  tl.capacity = capacity;
  tl.window = window != StatsTimeline::kAutoWindow
                  ? window
                  : std::max<std::uint64_t>(
                        1, n / StatsTimeline::kAutoTargetWindows);
  Simulation sim(map, policy, capacity);  // attach() first,
  policy.prepare(trace);                  // then offline knowledge.
  SimStats last;
  for (std::uint64_t start = 0; start < n; start += tl.window) {
    const std::uint64_t end = std::min(n, start + tl.window);
    for (std::uint64_t i = start; i < end; ++i) sim.access(accesses[i]);
    tl.windows.push_back({start, end - start, sim.stats() - last});
    last = sim.stats();
  }
  return tl;
}

}  // namespace gcaching::obs
