// Windowed time series of a simulation run, as gcmon snapshots.
//
// `record_timeline` slices a run into fixed-length windows of N accesses
// and harvests a gcmon `Monitor` (obs/gcmon.hpp) at the end of each, so
// phase behavior (the windowed miss-rate structure behind the paper's
// working-set bounds, GCM's epoch resets, delayed-hit analyses) becomes
// visible instead of being averaged into one end-of-trace aggregate. A
// window is one `Snapshot` in virtual time: the run is one shard whose
// cumulative counters are the live `Simulation`'s SimStats and occupancy,
// so consecutive snapshots give each window's deltas, and the Monitor's
// JSONL stream is the timeline file, in gcached's schema.
//
// The engines carry no telemetry at all: `record_timeline` steps the
// verifying `Simulation` itself, and the last snapshot is exactly the
// SimStats of `simulate` and `simulate_fast` (tests/test_obs_timeline.cpp
// holds every policy in the factory to that bit-identity).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/block_map.hpp"
#include "core/policy.hpp"
#include "core/trace.hpp"
#include "obs/gcmon.hpp"

namespace gcaching::obs {

/// With `kAutoWindow` the window length is derived from the trace length
/// (about kAutoTargetWindows windows per run, min 1).
inline constexpr std::uint64_t kAutoWindow = 0;
inline constexpr std::uint64_t kAutoTargetWindows = 256;

/// Runs `trace` through `policy` on a fresh cache of `capacity` items, as
/// the one-shot `simulate()` does (attach, `prepare`, step every access),
/// and calls `monitor.harvest_now()` after every `window` accesses; the
/// final window holds the remainder. `window` = kAutoWindow picks
/// max(1, trace.size() / kAutoTargetWindows). Returns the snapshots, one
/// per window. The run is attached as the monitor's only shard source for
/// the call and detached before it returns; the monitor must not be
/// running. Pass a fresh policy.
std::vector<Snapshot> record_timeline(const BlockMap& map, const Trace& trace,
                                      ReplacementPolicy& policy,
                                      std::size_t capacity,
                                      std::uint64_t window, Monitor& monitor);

}  // namespace gcaching::obs
