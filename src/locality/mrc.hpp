// Exact miss-ratio curves via Mattson's stack algorithm.
//
// Mattson et al. [1970] (cited as the classical offline foundation in
// Section 1): for stack algorithms like LRU, one pass over the trace yields
// the miss count for EVERY cache size simultaneously — record each access's
// stack (reuse) distance and take suffix sums of the histogram.
//
// We provide item-granularity curves (traditional LRU), block-granularity
// curves (Block-LRU: distances over the block-id stream, sizes in units of
// B items), and the *spatial-opportunity* curve: the item-LRU curve of an
// imaginary trace where a block access covers all its items — a cheap upper
// bound on what granularity-change loading could ever save.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/trace.hpp"

namespace gcaching::locality {

struct MissRatioCurve {
  /// cache sizes (in items) at which the curve is sampled; ascending.
  std::vector<std::size_t> sizes;
  /// misses[j] = exact LRU miss count at capacity sizes[j].
  std::vector<std::uint64_t> misses;
  /// total accesses (denominator for ratios).
  std::uint64_t accesses = 0;

  double miss_ratio(std::size_t j) const {
    return accesses == 0 ? 0.0
                         : static_cast<double>(misses[j]) /
                               static_cast<double>(accesses);
  }
};

/// Stack-distance histogram of a key stream: hist[d] = number of accesses
/// with LRU stack distance exactly d (1-based; hist[0] unused), plus
/// `cold` = first-touch accesses (infinite distance).
struct StackDistanceHistogram {
  std::vector<std::uint64_t> hist;  // index = distance, 1-based
  std::uint64_t cold = 0;
  std::uint64_t accesses = 0;

  /// Exact LRU miss count at capacity `c` (in keys): cold misses plus all
  /// accesses with distance > c.
  std::uint64_t misses_at(std::size_t c) const;
};

/// Incremental exact stack distances at amortized O(1) updates plus a short
/// cache-resident rank query per access.
///
/// The Bennett–Kruskal formulation: each seen key contributes one marker at
/// its *last* access position; the stack (reuse) distance of an access is
/// then 1 + the number of markers strictly between the key's previous
/// access and now — i.e. strictly above the previous position, since every
/// marker sits below the current one. Markers live in a bitmap over
/// positions with per-64-bit-word and per-32-word-chunk population counts
/// layered on top: moving a marker touches O(1) counters, and the
/// markers-above query is one masked popcount plus a count-array scan from
/// the previous position UP — which ends at the latest marker, so reuses of
/// recently-touched keys (the common case on real traces) cost only a few
/// iterations of straight-line code instead of a pointer-chasing balanced
/// tree or Fenwick walk.
///
/// Since live markers never exceed U (the key universe), positions are
/// periodically *compacted*: when the window fills, surviving markers are
/// renumbered 1..m order-preservingly and the bitmap rebuilt in O(window) —
/// renumbering cannot change any between-count. The window is a few
/// multiples of U, so the whole structure stays cache-resident no matter
/// how long the trace is; this is what lets the stack-algorithm sweep path
/// walk multi-million-access traces faster than even a single engine pass
/// (the old move-to-front list was O(depth) per access).
class StackDistanceWalker {
 public:
  /// Distance reported for a first-touch (cold) access.
  static constexpr std::size_t kCold = static_cast<std::size_t>(-1);

  /// `key_universe` bounds the key ids; `num_accesses` caps the initial
  /// window (short streams never pay for a universe-sized bitmap).
  StackDistanceWalker(std::size_t key_universe, std::size_t num_accesses);

  /// LRU stack distance (1-based position before the move-to-front) of the
  /// next access in the stream, or kCold on a first touch.
  std::size_t next(std::uint32_t key);

  std::size_t accesses() const noexcept { return count_; }

 private:
  void set_marker(std::size_t pos);
  void clear_marker(std::size_t pos);
  std::size_t markers_above(std::size_t pos) const;
  void compact();

  std::size_t window_ = 0;              // highest usable position
  std::vector<std::uint64_t> bits_;     // marker bitmap, bit i = position i+1
  std::vector<std::uint8_t> word_cnt_;  // popcount per bitmap word
  std::vector<std::uint16_t> chunk_cnt_;  // popcount per 32 words
  std::vector<std::uint32_t> last_pos_;  // key -> last window position (0 = never)
  std::vector<std::uint32_t> scratch_;  // compaction: old position -> key + 1
  std::size_t pos_ = 0;                 // current window position
  std::size_t count_ = 0;               // total accesses consumed
};

/// One-pass exact stack distances of a whole key stream (histogram form).
StackDistanceHistogram stack_distances(std::span<const std::uint32_t> keys,
                                       std::size_t key_universe);

/// Item-granularity LRU curve of a workload at the given sizes.
MissRatioCurve lru_mrc(const Workload& workload,
                       const std::vector<std::size_t>& sizes);

/// Block-granularity LRU curve: distances over block ids; a capacity of
/// `s` items holds floor(s / B) blocks.
MissRatioCurve block_lru_mrc(const Workload& workload,
                             const std::vector<std::size_t>& sizes);

}  // namespace gcaching::locality
