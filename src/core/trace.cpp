#include "core/trace.hpp"

#include <algorithm>
#include <cstdint>
#include <unordered_set>

#if defined(__linux__)
#include <sys/mman.h>
#include <unistd.h>
#endif

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

void populate_pages_for_write(void* addr, std::size_t bytes) noexcept {
#if defined(MADV_POPULATE_WRITE)
  // A kernel before 5.14 rejects the advice with EINVAL, which is ignored.
  static const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  const PageRun run =
      whole_pages_in(reinterpret_cast<std::uintptr_t>(addr), bytes, page);
  if (run.bytes > 0)
    (void)::madvise(reinterpret_cast<void*>(run.first), run.bytes,
                    MADV_POPULATE_WRITE);
#else
  (void)addr;
  (void)bytes;
#endif
}

void advise_huge_pages(void* addr, std::size_t bytes) noexcept {
#if defined(MADV_HUGEPAGE)
  // A kernel built without THP rejects the advice with EINVAL, which is
  // ignored.
  const PageRun run = whole_pages_in(reinterpret_cast<std::uintptr_t>(addr),
                                     bytes, kHugePageBytes);
  if (run.bytes > 0)
    (void)::madvise(reinterpret_cast<void*>(run.first), run.bytes,
                    MADV_HUGEPAGE);
#else
  (void)addr;
  (void)bytes;
#endif
}

void append_block_ids(const BlockMap& map, std::span<const ItemId> items,
                      BlockIdVector& ids) {
  const std::size_t first = ids.size();
  ids.reserve(first + items.size());
  populate_pages_for_write(ids.data() + first, items.size() * sizeof(BlockId));
  ids.resize(first + items.size());  // default-initialized: writes nothing
  map.block_ids_of(items, ids.data() + first);
}

void Trace::adopt_block_ids(const BlockMap& map, BlockIdVector ids) {
  GC_REQUIRE(ids.size() == accesses_.size(),
             "adopt_block_ids needs exactly one block id per access");
  if constexpr (kHotChecksEnabled) {
    GC_CHECK(ids == compute_block_ids(map, *this),
             "adopted block id disagrees with the map");
  }
  block_ids_ = std::move(ids);
  block_map_ = &map;
}

BlockIdVector compute_block_ids(const BlockMap& map, const Trace& trace) {
  const std::span<const ItemId> items = trace.accesses();
  BlockIdVector ids;
  ids.reserve(items.size());
  for (std::size_t first = 0; first < items.size();
       first += kTraceChunkAccesses) {
    const std::size_t n = std::min(kTraceChunkAccesses, items.size() - first);
    append_block_ids(map, items.subspan(first, n), ids);
  }
  return ids;
}

std::span<const BlockId> resolve_block_ids(const BlockMap& map,
                                           const Trace& trace,
                                           BlockIdVector& storage) {
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
