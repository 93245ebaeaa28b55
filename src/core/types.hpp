// Fundamental identifiers of the Granularity-Change Caching model.
//
// The model (Definition 1 of the paper): a universe of unit-size items is
// partitioned into disjoint *blocks* of at most B items. A cache of size k
// serves a trace of item requests; a request to a resident item is free, a
// request to a non-resident item costs 1 and may load *any subset of the
// requested item's block containing that item* for that single unit cost.
#pragma once

#include <cstdint>
#include <limits>

namespace gcaching {

/// Identifies a data item (unit size). Dense: 0 .. num_items-1.
using ItemId = std::uint32_t;

/// Identifies a block (a set of <= B items). Dense: 0 .. num_blocks-1.
using BlockId = std::uint32_t;

/// Sentinel for "no item".
inline constexpr ItemId kInvalidItem = std::numeric_limits<ItemId>::max();

/// Sentinel for "no block".
inline constexpr BlockId kInvalidBlock = std::numeric_limits<BlockId>::max();

}  // namespace gcaching
