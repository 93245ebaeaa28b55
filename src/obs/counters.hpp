// The one counter record of gcached and the simulator's timelines, and the
// one list of the counters every exporter writes.
//
// A shard's counters are its finalized SimStats (the paper's temporal /
// spatial hit split, Section 2, and sideload pollution, Section 4.2, with
// delayed hits), its clients' summed LockCounts, and three fields its
// snapshot hold reads; a timeline (obs/timeline.hpp) is one shard with its
// SimStats and residency. `counters()` names each of them once, with the
// key the JSONL objects use and the HELP text of its Prometheus family
// (`gcached_shard_<key>`, with `_total` on counters). gcmon's two writers,
// `prometheus_text` and `jsonl_line` (obs/gcmon.hpp), write every counter
// file from it, so a counter cannot be exported under two names.
#pragma once

#include <cstdint>
#include <ostream>
#include <vector>

#include "core/stats.hpp"

namespace gcaching::obs {

/// One shard's counters, read under one hold of its lock, or their sum.
struct ShardCounters {
  SimStats stats;    ///< finalized, the shard's share of collect_stats
  LockCounts locks;  ///< every client's lock events on the shard
  std::uint64_t coalesced = 0;       ///< accesses that parked on a fill
  std::uint64_t residency = 0;       ///< gauge: items resident
  std::uint64_t fills_inflight = 0;  ///< gauge: fill registers linked

  friend bool operator==(const ShardCounters&,
                         const ShardCounters&) = default;

  ShardCounters& operator+=(const ShardCounters& o) {
    stats += o.stats;
    locks += o.locks;
    coalesced += o.coalesced;
    residency += o.residency;
    fills_inflight += o.fills_inflight;
    return *this;
  }
};

/// One exported counter: its JSON key, its Prometheus HELP text, its value.
struct Counter {
  const char* key;
  const char* help;
  std::uint64_t value;
  bool gauge = false;
};

/// The SimStats counters, in export order.
inline std::vector<Counter> counters(const SimStats& s) {
  return {
      {"accesses", "Accesses served.", s.accesses},
      {"hits", "Accesses that found their item resident.", s.hits},
      {"misses", "Misses: block loads issued, the model's cost.", s.misses},
      {"temporal_hits", "Hits on items requested or touched since loaded.",
       s.temporal_hits},
      {"spatial_hits", "First hits on sideloaded items.", s.spatial_hits},
      {"items_loaded", "Items loaded by misses, sideloads included.",
       s.items_loaded},
      {"sideloads", "Items sideloaded by block fills.", s.sideloads},
      {"evictions", "Items evicted.", s.evictions},
      {"wasted_sideloads", "Sideloaded items evicted untouched.",
       s.wasted_sideloads},
      {"delayed_hits", "Accesses served by an in-flight fill.",
       s.delayed_hits},
      {"free_delayed_hits", "Delayed hits on items the fill sideloaded.",
       s.free_delayed_hits},
      {"delayed_hit_wait_ns", "Nanoseconds delayed hits waited on fills.",
       s.delayed_hit_wait_ns},
  };
}

/// A shard's counters: its SimStats counters, then its lock and shard
/// fields.
inline std::vector<Counter> counters(const ShardCounters& c) {
  std::vector<Counter> out = counters(c.stats);
  out.insert(
      out.end(),
      {{"lockfree_hits", "Temporal hits served with no shard-lock hold.",
        c.locks.lockfree_hits},
       {"lock_acquisitions", "Counted exclusive shard-lock holds.",
        c.locks.holds},
       {"lock_contended", "Holds whose first try-lock failed.",
        c.locks.contended_holds},
       {"trylock_failures", "Failed try-locks, one yield each.",
        c.locks.trylock_failures},
       {"coalesced", "Accesses that parked on an in-flight fill.",
        c.coalesced},
       {"residency", "Items resident in this shard's cache.", c.residency,
        true},
       {"fills_inflight", "Block fills in flight on this shard.",
        c.fills_inflight, true}});
  return out;
}

/// Writes `"key": value` for each counter, comma-separated.
inline void write_json_fields(std::ostream& os,
                              const std::vector<Counter>& fields) {
  for (std::size_t k = 0; k < fields.size(); ++k)
    os << (k == 0 ? "" : ", ") << '"' << fields[k].key
       << "\": " << fields[k].value;
}

}  // namespace gcaching::obs
