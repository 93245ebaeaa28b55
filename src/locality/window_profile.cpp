#include "locality/window_profile.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "util/contracts.hpp"

namespace gcaching::locality {

std::size_t max_distinct_in_windows(std::span<const std::uint32_t> keys,
                                    std::size_t n, std::size_t key_universe) {
  GC_REQUIRE(n >= 1, "window length must be positive");
  if (keys.empty()) return 0;
  const std::size_t w = std::min(n, keys.size());
  std::vector<std::uint32_t> count(key_universe, 0);
  std::size_t distinct = 0, best = 0;
  for (std::size_t p = 0; p < keys.size(); ++p) {
    if (count[keys[p]]++ == 0) ++distinct;
    if (p >= w) {
      if (--count[keys[p - w]] == 0) --distinct;
    }
    if (p + 1 >= w) best = std::max(best, distinct);
  }
  return best;
}

std::vector<std::size_t> default_window_lengths(std::size_t trace_length,
                                                int points_per_octave) {
  GC_REQUIRE(points_per_octave >= 1, "need at least one point per octave");
  std::vector<std::size_t> out;
  const double step = std::pow(2.0, 1.0 / points_per_octave);
  double w = 1.0;
  while (static_cast<std::size_t>(w) <= trace_length) {
    const auto n = static_cast<std::size_t>(w);
    if (out.empty() || out.back() != n) out.push_back(n);
    w = std::max(w * step, w + 1.0);
  }
  if (out.empty() || out.back() != trace_length) out.push_back(trace_length);
  return out;
}

WorkingSetProfile compute_profile(const Workload& workload,
                                  std::vector<std::size_t> window_lengths) {
  workload.validate();
  const auto& items = workload.trace.accesses();
  const BlockIdVector blocks =
      compute_block_ids(*workload.map, workload.trace);

  WorkingSetProfile out;
  out.window_lengths = window_lengths.empty()
                           ? default_window_lengths(items.size())
                           : std::move(window_lengths);
  GC_REQUIRE(std::is_sorted(out.window_lengths.begin(),
                            out.window_lengths.end()),
             "window lengths must be ascending");
  out.max_distinct_items.reserve(out.window_lengths.size());
  out.max_distinct_blocks.reserve(out.window_lengths.size());
  for (std::size_t n : out.window_lengths) {
    out.max_distinct_items.push_back(static_cast<double>(
        max_distinct_in_windows(items, n, workload.map->num_items())));
    out.max_distinct_blocks.push_back(static_cast<double>(
        max_distinct_in_windows(blocks, n, workload.map->num_blocks())));
  }
  return out;
}

bounds::LocalityFunction interpolate_locality(
    const std::vector<std::size_t>& window_lengths,
    const std::vector<double>& samples) {
  GC_REQUIRE(window_lengths.size() == samples.size() && !samples.empty(),
             "need matching, non-empty sample arrays");
  GC_REQUIRE(is_nondecreasing(samples), "locality samples must not decrease");
  // Copy into shared vectors captured by both closures.
  auto xs = std::make_shared<std::vector<double>>();
  auto ys = std::make_shared<std::vector<double>>(samples);
  xs->reserve(window_lengths.size());
  for (std::size_t n : window_lengths) xs->push_back(static_cast<double>(n));

  auto interp = [](const std::vector<double>& X, const std::vector<double>& Y,
                   double x) {
    if (x <= X.front()) {
      // Extrapolate through the origin-ish first segment.
      return Y.front() * (x / X.front());
    }
    if (x >= X.back()) {
      if (X.size() == 1) return Y.back();
      const std::size_t n = X.size();
      const double slope =
          (Y[n - 1] - Y[n - 2]) / std::max(1e-12, X[n - 1] - X[n - 2]);
      return Y.back() + slope * (x - X.back());
    }
    const auto it = std::upper_bound(X.begin(), X.end(), x);
    const std::size_t j = static_cast<std::size_t>(it - X.begin());
    const double t = (x - X[j - 1]) / (X[j] - X[j - 1]);
    return Y[j - 1] + t * (Y[j] - Y[j - 1]);
  };

  bounds::LocalityFunction fn;
  fn.value = [xs, ys, interp](double n) { return interp(*xs, *ys, n); };
  // Inverse of a monotone piecewise-linear function: interpolate with the
  // roles of X and Y swapped. Plateaus (equal Y) invert to the leftmost x.
  fn.inverse = [xs, ys, interp](double m) {
    // Deduplicate plateaus so the swapped arrays are strictly increasing.
    std::vector<double> X, Y;
    for (std::size_t j = 0; j < ys->size(); ++j) {
      if (!Y.empty() && (*ys)[j] <= Y.back()) continue;
      Y.push_back((*ys)[j]);
      X.push_back((*xs)[j]);
    }
    if (Y.empty()) return 0.0;
    return interp(Y, X, m);
  };
  return fn;
}

bool is_nondecreasing(const std::vector<double>& samples) {
  for (std::size_t j = 1; j < samples.size(); ++j)
    if (samples[j] < samples[j - 1]) return false;
  return true;
}

}  // namespace gcaching::locality
