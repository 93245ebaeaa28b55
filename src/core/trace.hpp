// Access traces and workloads.
//
// A `Trace` is the request sequence sigma of Definition 1: an ordered list
// of item ids. A `Workload` bundles a trace with the block partition it was
// generated against, which is what simulators and analyzers consume.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/block_map.hpp"
#include "core/types.hpp"
#include "util/contracts.hpp"

namespace gcaching {

/// std::allocator whose value-less construct() default-initializes, so
/// resize() on a vector of trivial elements writes nothing: the bytes are
/// left for the producer that is about to overwrite them.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  DefaultInitAllocator() = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}

  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

/// One block id per access. Growing it leaves the new ids uninitialized
/// until BlockMap::block_ids_of writes them (see append_block_ids).
using BlockIdVector = std::vector<BlockId, DefaultInitAllocator<BlockId>>;

/// Accesses per chunk of a chunked pass over a trace: ~1 MiB of records,
/// so a chunk's items are still in cache when its block ids are written.
inline constexpr std::size_t kTraceChunkAccesses =
    (std::size_t{1} << 20) / sizeof(ItemId);

/// Size of the transparent huge pages advise_huge_pages asks for (a PMD
/// on x86-64, and on arm64 with 4 KiB base pages).
inline constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

/// A run of whole pages: `bytes` (a multiple of the page) from `first`.
struct PageRun {
  std::uintptr_t first;
  std::size_t bytes;
  bool operator==(const PageRun&) const = default;
};

/// The whole `page`-aligned pages inside [begin, begin + bytes): the start
/// rounded up, the end rounded down. Empty (`bytes` 0) where no whole page
/// fits, so it never names a byte outside the range. `page` is a power of
/// two.
constexpr PageRun whole_pages_in(std::uintptr_t begin, std::size_t bytes,
                                 std::size_t page) noexcept {
  const std::uintptr_t first = (begin + page - 1) & ~(page - 1);
  const std::uintptr_t last = (begin + bytes) & ~(page - 1);
  return {first, last > first ? last - first : 0};
}

/// Faults in, for writing, the whole pages inside [addr, addr + bytes) in
/// one call (Linux MADV_POPULATE_WRITE), so the writer that follows takes
/// no page fault per 4 KiB. Only a hint: where the call is unavailable or
/// fails (a kernel before 5.14, a non-Linux build), the pages fault in on
/// first touch as usual. Contents are unchanged.
void populate_pages_for_write(void* addr, std::size_t bytes) noexcept;

/// Asks for transparent huge pages (Linux MADV_HUGEPAGE) on the whole
/// kHugePageBytes extents inside [addr, addr + bytes), so that an array
/// written end to end faults in 2 MiB at a time. Call it on a fresh
/// reservation, before its first page is populated. Only a hint: where the
/// call is unavailable or fails, or the host's THP mode is `never`, the
/// pages stay 4 KiB. Contents are unchanged.
void advise_huge_pages(void* addr, std::size_t bytes) noexcept;

/// The one producer of block-id vectors: appends the block of every item
/// of `items` under `map` to `ids`. The new ids' pages are populated first,
/// then BlockMap::block_ids_of writes them, with no zero-fill in between.
/// Callers pass a trace in kTraceChunkAccesses chunks, having reserved the
/// whole trace. Throws ContractViolation "trace references item outside
/// the map" for an out-of-range item, after which `ids` is unspecified.
void append_block_ids(const BlockMap& map, std::span<const ItemId> items,
                      BlockIdVector& ids);

class TraceView;

class Trace {
 public:
  Trace() = default;
  explicit Trace(std::vector<ItemId> accesses)
      : accesses_(std::move(accesses)) {}

  void push(ItemId item) {
    accesses_.push_back(item);
    block_map_ = nullptr;  // invalidate any precomputed block ids
  }
  void append(const Trace& other);
  void reserve(std::size_t n) { accesses_.reserve(n); }
  void clear() {
    accesses_.clear();
    block_ids_.clear();
    block_map_ = nullptr;
  }

  std::size_t size() const noexcept { return accesses_.size(); }
  bool empty() const noexcept { return accesses_.empty(); }
  ItemId operator[](std::size_t i) const { return accesses_[i]; }

  auto begin() const noexcept { return accesses_.begin(); }
  auto end() const noexcept { return accesses_.end(); }

  const std::vector<ItemId>& accesses() const noexcept { return accesses_; }

  /// Number of distinct items referenced anywhere in the trace.
  std::size_t distinct_items() const;

  /// Largest item id referenced, or kInvalidItem for an empty trace.
  ItemId max_item() const;

  // ---- Per-access block ids (fast-path support) ---------------------------
  // The fast simulation engine never calls the virtual BlockMap::block_of in
  // its hot loop; instead the block id of every access is resolved once,
  // here. The cache is tied to the map it was computed against and is
  // invalidated by any trace mutation.

  /// Resolve and store the block id of every access against `map`. Also
  /// validates that every access is inside the map's universe. O(size).
  /// Returns at once when the ids are already there, as they are for a
  /// trace from TraceView::materialize() against the workload's own map.
  void precompute_block_ids(const BlockMap& map);

  /// True when block ids are cached for this exact map instance.
  bool has_block_ids(const BlockMap& map) const noexcept {
    return block_map_ == &map && block_ids_.size() == accesses_.size();
  }

  /// The cached per-access block ids (valid only when has_block_ids()).
  std::span<const BlockId> block_ids() const noexcept { return block_ids_; }

  /// Install externally computed block ids (e.g. from a sampling filter
  /// that resolved them as a by-product) as this trace's cache for `map`.
  /// `ids` must hold exactly one id per access; in checking builds every id
  /// is verified against the map.
  void adopt_block_ids(const BlockMap& map, BlockIdVector ids);

 private:
  friend class TraceView;

  /// Installs ids that the caller produced from these very accesses with
  /// append_block_ids against `map`, so they are not checked again.
  Trace(std::vector<ItemId> accesses, const BlockMap& map, BlockIdVector ids)
      : accesses_(std::move(accesses)),
        block_ids_(std::move(ids)),
        block_map_(&map) {}

  std::vector<ItemId> accesses_;
  BlockIdVector block_ids_;
  const BlockMap* block_map_ = nullptr;
};

/// Standalone form of Trace::precompute_block_ids for callers holding a
/// const Trace (e.g. the sweep runner): resolves every access's block id
/// against `map` with append_block_ids, chunk by chunk, which validates
/// item ranges as it goes.
BlockIdVector compute_block_ids(const BlockMap& map, const Trace& trace);

/// The one place the "use the trace's cached ids, else resolve them once"
/// decision lives (previously repeated across the fast-engine setup, the
/// factory dispatch, and the sweep runner). Returns the trace's cached ids
/// when they were precomputed against `map`; otherwise resolves into
/// `storage` and returns a span over it. The returned span is valid as long
/// as both `trace` and `storage` are.
std::span<const BlockId> resolve_block_ids(const BlockMap& map,
                                           const Trace& trace,
                                           BlockIdVector& storage);

/// A trace plus the partition it is defined over. The map is shared because
/// many traces (e.g. a parameter sweep) reference one partition.
struct Workload {
  std::shared_ptr<const BlockMap> map;
  Trace trace;
  std::string name;  ///< human-readable provenance, e.g. "zipf(theta=0.9)"

  /// Number of distinct blocks referenced by the trace.
  std::size_t distinct_blocks() const;

  /// Validates that every access refers to an item inside the map.
  void validate() const;
};

}  // namespace gcaching
