// Stack-algorithm capacity columns: per-capacity SimStats in ONE pass.
//
// Mattson's observation (the basis of mrc.hpp) gives the *miss count* of
// every LRU cache size from one stack-distance pass. The sweep engine needs
// more: full `SimStats` — the spatial/temporal hit taxonomy, load/eviction
// traffic, and wasted-sideload pollution — bit-identical to what the
// per-cell simulation engines produce. This header derives exactly that for
// the two stack policies in the factory:
//
//   * item-lru  — misses from the item-granularity histogram; loads equal
//     misses, every hit is temporal (requested loads only), evictions follow
//     from occupancy arithmetic.
//   * block-lru — misses from the block-granularity histogram. The taxonomy
//     needs one extra per-access quantity m: the *maximum* block stack
//     distance observed since the accessed item was last touched (cold = ∞).
//     A hit at block-capacity C is spatial iff m > C (the block was reloaded
//     since the item's last touch, so the item is an untouched sideload),
//     and a block-miss wastes a sibling y iff min(d, m_y) > C (y untouched
//     across a whole load/evict cycle). Both conditions are capacity
//     *intervals* in C, so difference arrays over C answer every capacity
//     from the single pass. A final-stack fixup accounts for blocks evicted
//     after their last access (the simulator charges wasted sideloads at
//     eviction time).
//
// Eligibility: block-lru additionally requires a uniform partition (every
// block exactly B items) so that "capacity k holds floor(k/B) blocks" models
// the policy's evict-until-fits loop; `block_column_supported` reports it.
// The factory (policies/factory.cpp) decides eligibility once, in
// `stack_column_eligible` (item-lru always, block-lru on a uniform partition)
// and, in checking builds, cross-checks the derivation against per-cell
// `simulate_fast` cell by cell.
#pragma once

#include <span>
#include <vector>

#include "core/stats.hpp"
#include "core/trace.hpp"

namespace gcaching::locality {

/// True when block_lru_column models BlockLru's mechanics for `map`: a
/// uniform partition (every block exactly max_block_size() items).
bool block_column_supported(const BlockMap& map);

/// SimStats of ItemLru at every capacity, from one stack-distance pass.
/// Bit-identical to simulate_fast<ItemLru> per capacity. Capacities may be
/// in any order; stats[i] corresponds to capacities[i].
std::vector<SimStats> item_lru_column(const BlockMap& map, const Trace& trace,
                                      std::span<const std::size_t> capacities);

/// SimStats of BlockLru at every capacity, from one block-stream pass.
/// Requires block_column_supported(map) and every capacity >= B (the same
/// precondition BlockLru::attach enforces).
std::vector<SimStats> block_lru_column(const BlockMap& map, const Trace& trace,
                                       std::span<const BlockId> block_ids,
                                       std::span<const std::size_t> capacities);

}  // namespace gcaching::locality
