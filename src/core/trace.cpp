#include "core/trace.hpp"

#include <algorithm>
#include <unordered_set>

#include "util/contracts.hpp"

namespace gcaching {

void Trace::append(const Trace& other) {
  accesses_.insert(accesses_.end(), other.accesses_.begin(),
                   other.accesses_.end());
  block_map_ = nullptr;  // invalidate any precomputed block ids
}

void Trace::precompute_block_ids(const BlockMap& map) {
  if (has_block_ids(map)) return;
  block_ids_ = compute_block_ids(map, *this);
  block_map_ = &map;
}

void Trace::adopt_block_ids(const BlockMap& map, std::vector<BlockId> ids) {
  GC_REQUIRE(ids.size() == accesses_.size(),
             "adopt_block_ids needs exactly one block id per access");
  if constexpr (kHotChecksEnabled) {
    GC_CHECK(ids == compute_block_ids(map, *this),
             "adopted block id disagrees with the map");
  }
  block_ids_ = std::move(ids);
  block_map_ = &map;
}

std::vector<BlockId> compute_block_ids(const BlockMap& map,
                                       const Trace& trace) {
  std::vector<BlockId> out(trace.size());
  map.block_ids_of(trace.accesses(), out.data());
  return out;
}

std::span<const BlockId> resolve_block_ids(const BlockMap& map,
                                           const Trace& trace,
                                           std::vector<BlockId>& storage) {
  if (trace.has_block_ids(map)) return trace.block_ids();
  storage = compute_block_ids(map, trace);
  return storage;
}

std::size_t Trace::distinct_items() const {
  std::unordered_set<ItemId> seen(accesses_.begin(), accesses_.end());
  return seen.size();
}

ItemId Trace::max_item() const {
  if (accesses_.empty()) return kInvalidItem;
  // A plain reduction, which vectorizes where std::max_element does not.
  ItemId max_item = 0;
  for (const ItemId it : accesses_) max_item = std::max(max_item, it);
  return max_item;
}

std::size_t Workload::distinct_blocks() const {
  GC_REQUIRE(map != nullptr, "workload has no block map");
  std::unordered_set<BlockId> seen;
  for (ItemId it : trace) seen.insert(map->block_of(it));
  return seen.size();
}

void Workload::validate() const {
  GC_REQUIRE(map != nullptr, "workload has no block map");
  GC_REQUIRE(trace.empty() || trace.max_item() < map->num_items(),
             "trace references item outside the map");
}

}  // namespace gcaching
