// Measuring locality functions from traces.
//
// The Section 7 model characterizes a trace by f(n) — the maximum number of
// distinct items in any window of n consecutive accesses — and g(n), the
// same over blocks. This module computes those functions *exactly* for a
// chosen set of window lengths (O(T) sliding window per length) and turns
// the measured points into a usable `LocalityFunction` via monotone
// piecewise-linear interpolation.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bounds/locality_bounds.hpp"
#include "core/trace.hpp"

namespace gcaching::locality {

struct WorkingSetProfile {
  std::vector<std::size_t> window_lengths;  ///< ascending
  std::vector<double> max_distinct_items;   ///< f(n) samples
  std::vector<double> max_distinct_blocks;  ///< g(n) samples

  /// Spatial-locality ratio f(n)/g(n) at sample index s (1 = none, B = max).
  double spatial_ratio(std::size_t s) const {
    return max_distinct_items[s] / max_distinct_blocks[s];
  }
};

/// Exact max-distinct count over all windows of length `n` of `keys`.
/// `key_universe` bounds the key values (items or blocks).
std::size_t max_distinct_in_windows(std::span<const std::uint32_t> keys,
                                    std::size_t n, std::size_t key_universe);

/// Default log-spaced window lengths: 1, 2, 3, 4, 6, 8, ... up to the trace
/// length, `points_per_octave` samples per doubling.
std::vector<std::size_t> default_window_lengths(std::size_t trace_length,
                                                int points_per_octave = 4);

/// Computes f and g samples for the workload at the given window lengths
/// (defaults used when empty).
WorkingSetProfile compute_profile(const Workload& workload,
                                  std::vector<std::size_t> window_lengths = {});

/// Monotone piecewise-linear LocalityFunction through measured samples.
/// `value()` clamps outside the sampled range to the boundary slopes;
/// `inverse()` is the exact inverse of the interpolant.
bounds::LocalityFunction interpolate_locality(
    const std::vector<std::size_t>& window_lengths,
    const std::vector<double>& samples);

/// Checks that samples are nondecreasing (required of any valid locality
/// function); returns false otherwise.
bool is_nondecreasing(const std::vector<double>& samples);

}  // namespace gcaching::locality
