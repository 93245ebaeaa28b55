#include "locality/mrc.hpp"

#include <algorithm>
#include <bit>

#include "util/contracts.hpp"

namespace gcaching::locality {

std::uint64_t StackDistanceHistogram::misses_at(std::size_t c) const {
  // Misses = cold + accesses with distance > c.
  std::uint64_t hits = 0;
  const std::size_t top = std::min(c, hist.size() - 1);
  for (std::size_t d = 1; d <= top; ++d) hits += hist[d];
  return accesses - hits;
}

namespace {

/// Words per count chunk; 32 words = 2048 positions, so chunk counts fit
/// comfortably in uint16 and a chunk's worth of byte counts in one or two
/// vector registers.
constexpr std::size_t kWordsPerChunk = 32;

}  // namespace

StackDistanceWalker::StackDistanceWalker(std::size_t key_universe,
                                         std::size_t num_accesses)
    : last_pos_(key_universe, 0) {
  // Window a few multiples of the universe: live markers never exceed U, so
  // compaction always frees at least 3U slots, amortizing its O(window)
  // cost to O(1) per access while keeping the bitmap cache-resident. Short
  // streams size to the stream and never compact. Positions are stored as
  // uint32, which caps the window (not the stream length — compaction
  // renumbers long before 2^32 is an issue).
  window_ = std::min({num_accesses, std::max<std::size_t>(4 * key_universe, 64),
                      std::size_t{0xFFFF0000}});
  const std::size_t words = (window_ + 63) / 64;
  bits_.assign(words, 0);
  word_cnt_.assign(words, 0);
  chunk_cnt_.assign((words + kWordsPerChunk - 1) / kWordsPerChunk, 0);
}

void StackDistanceWalker::set_marker(std::size_t pos) {
  const std::size_t i = pos - 1;
  const std::size_t w = i >> 6;
  bits_[w] |= std::uint64_t{1} << (i & 63);
  ++word_cnt_[w];
  ++chunk_cnt_[w / kWordsPerChunk];
}

void StackDistanceWalker::clear_marker(std::size_t pos) {
  const std::size_t i = pos - 1;
  const std::size_t w = i >> 6;
  bits_[w] &= ~(std::uint64_t{1} << (i & 63));
  --word_cnt_[w];
  --chunk_cnt_[w / kWordsPerChunk];
}

std::size_t StackDistanceWalker::markers_above(std::size_t pos) const {
  // Markers at positions strictly greater than pos: a masked popcount of
  // pos's own word, then word counts to the chunk boundary, then chunk
  // counts. Every marker sits at or below the latest placed position, so
  // the loops stop there; when pos is recent — the common case on real
  // traces — only a few iterations run. Words past the top position hold
  // no markers, so the sloppy chunk-granular upper boundary adds zeros.
  const std::size_t i = pos - 1;  // bit index of pos's own marker
  const std::size_t w = i >> 6;
  const std::size_t wmax = (pos_ - 2) >> 6;  // word of the latest marker
  const std::size_t r = i & 63;
  std::size_t sum =
      r == 63 ? 0
              : static_cast<std::size_t>(std::popcount(bits_[w] >> (r + 1)));
  const std::size_t head_end =
      std::min(wmax + 1, (w / kWordsPerChunk + 1) * kWordsPerChunk);
  for (std::size_t j = w + 1; j < head_end; ++j) sum += word_cnt_[j];
  for (std::size_t c = w / kWordsPerChunk + 1; c <= wmax / kWordsPerChunk; ++c)
    sum += chunk_cnt_[c];
  return sum;
}

void StackDistanceWalker::compact() {
  // Renumber live markers 1..m in position order. Stack distances depend
  // only on the relative order of markers, which renumbering preserves.
  // Positions are unique, so an O(window) scatter into a position-indexed
  // table replaces a sort.
  scratch_.assign(window_ + 1, 0);  // old position -> key + 1
  for (std::uint32_t k = 0; k < last_pos_.size(); ++k)
    if (last_pos_[k] != 0) scratch_[last_pos_[k]] = k + 1;
  std::uint32_t m = 0;
  for (std::size_t p = 1; p <= window_; ++p)
    if (scratch_[p] != 0) last_pos_[scratch_[p] - 1] = ++m;
  GC_REQUIRE(m < window_, "walker fed more accesses than declared");
  // Rebuild the bitmap as m leading ones.
  std::fill(bits_.begin(), bits_.end(), 0);
  std::fill(word_cnt_.begin(), word_cnt_.end(), 0);
  std::fill(chunk_cnt_.begin(), chunk_cnt_.end(), 0);
  const std::size_t full = m >> 6;
  for (std::size_t w = 0; w < full; ++w) {
    bits_[w] = ~std::uint64_t{0};
    word_cnt_[w] = 64;
    chunk_cnt_[w / kWordsPerChunk] += 64;
  }
  const std::size_t rem = m & 63;
  if (rem != 0) {
    bits_[full] = (std::uint64_t{1} << rem) - 1;
    word_cnt_[full] = static_cast<std::uint8_t>(rem);
    chunk_cnt_[full / kWordsPerChunk] += static_cast<std::uint16_t>(rem);
  }
  pos_ = m;
}

// Per-access entry point of the walker; compact() stays outside the region —
// it runs once per `window_` accesses, so its cold contract is amortized.
GC_HOT_REGION_BEGIN(stack_distance_walker_next)
std::size_t StackDistanceWalker::next(std::uint32_t key) {
  GC_HOT_REQUIRE(key < last_pos_.size(), "key out of range");
  if (pos_ >= window_) compact();
  ++pos_;
  ++count_;
  const std::size_t prev = last_pos_[key];
  std::size_t dist = kCold;
  if (prev != 0) {
    // Markers strictly between the previous access and now are exactly the
    // distinct other keys touched since — the stack depth minus one.
    dist = markers_above(prev) + 1;
    clear_marker(prev);
  }
  set_marker(pos_);
  last_pos_[key] = static_cast<std::uint32_t>(pos_);
  return dist;
}
GC_HOT_REGION_END(stack_distance_walker_next)

StackDistanceHistogram stack_distances(std::span<const std::uint32_t> keys,
                                       std::size_t key_universe) {
  StackDistanceHistogram out;
  out.accesses = keys.size();
  out.hist.assign(2, 0);
  StackDistanceWalker walker(key_universe, keys.size());
  for (std::uint32_t key : keys) {
    const std::size_t depth = walker.next(key);
    if (depth == StackDistanceWalker::kCold) {
      ++out.cold;
      continue;
    }
    if (depth >= out.hist.size()) out.hist.resize(depth + 1, 0);
    ++out.hist[depth];
  }
  return out;
}

MissRatioCurve lru_mrc(const Workload& workload,
                       const std::vector<std::size_t>& sizes) {
  workload.validate();
  GC_REQUIRE(std::is_sorted(sizes.begin(), sizes.end()),
             "sizes must be ascending");
  const auto hist = stack_distances(workload.trace.accesses(),
                                    workload.map->num_items());
  MissRatioCurve curve;
  curve.sizes = sizes;
  curve.accesses = hist.accesses;
  curve.misses.reserve(sizes.size());
  for (std::size_t s : sizes) curve.misses.push_back(hist.misses_at(s));
  return curve;
}

MissRatioCurve block_lru_mrc(const Workload& workload,
                             const std::vector<std::size_t>& sizes) {
  workload.validate();
  GC_REQUIRE(std::is_sorted(sizes.begin(), sizes.end()),
             "sizes must be ascending");
  const BlockIdVector blocks =
      compute_block_ids(*workload.map, workload.trace);
  const auto hist = stack_distances(blocks, workload.map->num_blocks());
  const std::size_t B = workload.map->max_block_size();
  MissRatioCurve curve;
  curve.sizes = sizes;
  curve.accesses = hist.accesses;
  curve.misses.reserve(sizes.size());
  for (std::size_t s : sizes)
    curve.misses.push_back(hist.misses_at(s / B));
  return curve;
}

}  // namespace gcaching::locality
