// Simulation statistics.
//
// The model's cost objective is the number of misses (each miss = one unit
// block-load cost, regardless of how many items of the block are taken).
// We additionally split hits into temporal vs spatial (Section 2) and track
// load/eviction traffic, including pure pollution (side-loaded items evicted
// untouched) — the effect that makes Block Caches fragile (Section 4.2).
#pragma once

#include <cstdint>
#include <string>

namespace gcaching {

struct SimStats {
  std::uint64_t accesses = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;  ///< == cost in the unit-block-cost model
  std::uint64_t temporal_hits = 0;
  std::uint64_t spatial_hits = 0;
  std::uint64_t items_loaded = 0;
  std::uint64_t sideloads = 0;
  std::uint64_t evictions = 0;
  std::uint64_t wasted_sideloads = 0;
  /// Accesses served by a fill already in flight (MSHR coalescing in the
  /// gcached runtime): neither a hit (the item was not resident at access
  /// time) nor a miss (no new block load was issued). Always zero in the
  /// sequential engines and with no fill latency. Conservation law:
  /// hits + misses + delayed_hits == accesses.
  std::uint64_t delayed_hits = 0;
  /// Subset of delayed_hits whose item the pending fill *sideloaded* — the
  /// requester never asked for it, so the wait was bought by spatial
  /// locality alone ("free" delayed hits, the GC-caching twist on
  /// arXiv:2006.00376's delayed-hit model).
  std::uint64_t free_delayed_hits = 0;
  /// Total nanoseconds delayed-hit accesses spent parked on in-flight
  /// fills (queuing cost = remaining fill time at arrival).
  std::uint64_t delayed_hit_wait_ns = 0;

  /// Every ratio helper shares one zero-denominator convention: an empty
  /// denominator yields 0.0 (never NaN/inf), so "no hits yet" and "no
  /// spatial hits among them" read the same — pinned by tests/test_stats.cpp.
  static double ratio(std::uint64_t num, std::uint64_t den) {
    return den == 0 ? 0.0
                    : static_cast<double>(num) / static_cast<double>(den);
  }

  double miss_rate() const { return ratio(misses, accesses); }
  double hit_rate() const { return ratio(hits, accesses); }
  /// Fraction of hits attributable to spatial locality.
  double spatial_hit_share() const { return ratio(spatial_hits, hits); }
  /// Average items loaded per miss (1 for an Item Cache, up to B).
  double loads_per_miss() const { return ratio(items_loaded, misses); }
  /// Fraction of side-loaded items evicted untouched — the pure-pollution
  /// share of the speculative traffic (Section 4.2's fragility measure).
  double wasted_sideload_share() const {
    return ratio(wasted_sideloads, sideloads);
  }
  double delayed_hit_rate() const { return ratio(delayed_hits, accesses); }
  /// Fraction of delayed hits the requester never asked for (sideloaded by
  /// the pending fill — free spatial-locality wins).
  double free_delayed_hit_share() const {
    return ratio(free_delayed_hits, delayed_hits);
  }
  /// Latency-weighted average memory access time: every miss pays the full
  /// backend fill, every delayed hit pays its measured residual wait, and
  /// plain hits are free. The classical AMAT decomposition with the
  /// delayed-hit correction of arXiv:2006.00376.
  double amat_ns(std::uint64_t fill_latency_ns) const {
    if (accesses == 0) return 0.0;
    const double cost = static_cast<double>(misses) *
                            static_cast<double>(fill_latency_ns) +
                        static_cast<double>(delayed_hit_wait_ns);
    return cost / static_cast<double>(accesses);
  }

  /// Bit-identity across engines (fast vs verifying) is a hard guarantee;
  /// tests and benches compare full stat structs.
  friend bool operator==(const SimStats&, const SimStats&) = default;

  SimStats& operator+=(const SimStats& o) {
    accesses += o.accesses;
    hits += o.hits;
    misses += o.misses;
    temporal_hits += o.temporal_hits;
    spatial_hits += o.spatial_hits;
    items_loaded += o.items_loaded;
    sideloads += o.sideloads;
    evictions += o.evictions;
    wasted_sideloads += o.wasted_sideloads;
    delayed_hits += o.delayed_hits;
    free_delayed_hits += o.free_delayed_hits;
    delayed_hit_wait_ns += o.delayed_hit_wait_ns;
    return *this;
  }

  /// Counter deltas between two snapshots of the same run (every counter is
  /// monotonic, so `later - earlier` never wraps). Header-inline on purpose:
  /// gcobs windows stats with this and must not need a gc_core link.
  SimStats& operator-=(const SimStats& o) {
    accesses -= o.accesses;
    hits -= o.hits;
    misses -= o.misses;
    temporal_hits -= o.temporal_hits;
    spatial_hits -= o.spatial_hits;
    items_loaded -= o.items_loaded;
    sideloads -= o.sideloads;
    evictions -= o.evictions;
    wasted_sideloads -= o.wasted_sideloads;
    delayed_hits -= o.delayed_hits;
    free_delayed_hits -= o.free_delayed_hits;
    delayed_hit_wait_ns -= o.delayed_hit_wait_ns;
    return *this;
  }
  friend SimStats operator-(SimStats a, const SimStats& b) {
    a -= b;
    return a;
  }

  std::string summary() const;
};

}  // namespace gcaching
