// Windowed time-series collection of SimStats.
//
// A `StatsTimeline` slices a simulation run into fixed-length windows of N
// accesses and records the SimStats *delta* of each window, so phase
// behavior (the windowed miss-rate structure behind the paper's working-set
// bounds, GCM's epoch resets, delayed-hit analyses) becomes visible instead
// of being averaged into one end-of-trace aggregate. A timeline records one
// run at one capacity: a single series of windows.
//
// `record_timeline` produces one by stepping the verifying `Simulation` and
// differencing its live `stats()` at each window boundary. The engines carry
// no telemetry at all: the window deltas sum to exactly the SimStats of
// `simulate` and `simulate_fast` (tests/test_obs_timeline.cpp holds every
// policy in the factory to that bit-identity).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/block_map.hpp"
#include "core/policy.hpp"
#include "core/stats.hpp"
#include "core/trace.hpp"

namespace gcaching::obs {

/// One recorded window.
struct TimelineWindow {
  std::uint64_t start = 0;   ///< index of the window's first access
  std::uint64_t length = 0;  ///< accesses covered (< window only when final)
  SimStats delta;            ///< stat deltas over exactly these accesses

  double miss_rate() const { return delta.miss_rate(); }
  double spatial_hit_share() const { return delta.spatial_hit_share(); }
  double wasted_sideload_share() const {
    return delta.wasted_sideload_share();
  }
};

struct StatsTimeline {
  /// With `kAutoWindow` the window length is derived from the trace length
  /// (about kAutoTargetWindows windows per run, min 1).
  static constexpr std::uint64_t kAutoWindow = 0;
  static constexpr std::uint64_t kAutoTargetWindows = 256;

  std::size_t capacity = 0;
  std::uint64_t window = 1;
  std::vector<TimelineWindow> windows;

  /// Sum of every window delta — bit-identical to the run's final SimStats.
  SimStats window_sum() const;

  /// JSON-lines sink, one object per window: capacity, window, start,
  /// length, every SimStats counter's delta (obs/counters.hpp), derived
  /// rates. Throws std::runtime_error("cannot
  /// write <path>") when the file cannot be opened or fully written.
  void write_jsonl(const std::string& path) const;
};

/// Runs `trace` through `policy` on a fresh cache of `capacity` items, as
/// the one-shot `simulate()` does (attach, `prepare`, step every access),
/// and records the SimStats delta of every `window` accesses; the final
/// window holds the remainder. `window` = kAutoWindow picks
/// max(1, trace.size() / kAutoTargetWindows). Pass a fresh policy.
StatsTimeline record_timeline(const BlockMap& map, const Trace& trace,
                              ReplacementPolicy& policy, std::size_t capacity,
                              std::uint64_t window);

}  // namespace gcaching::obs
