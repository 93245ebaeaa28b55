// Footprint guard for a gcached set-up: loads a gctrace in a process of its
// own, builds an 8-shard block-lru cache over it, drops it, then builds an
// 8-shard item-lru cache, and fails unless the peak resident set (VmHWM)
// grew by at most
//   * the two trace-length vectors (items and block ids),
//   * the larger cache's structures, computed from the shard sizes: each
//     shard's flag byte per item and its policy's recency list (one node
//     per item for item-lru, per block for block-lru), plus the
//     global-to-local block table,
//   * one shard identity table (max_s n_s ids, which every shard shares),
//   * and kSlackBytes for allocator and page rounding.
// A set-up that also builds the global map's item table, or one table per
// shard, goes over it.
//
//   setup_footprint TRACE.gct
//
// Exits 0 within the bound, 1 over it, 2 on bad usage, and 77 (skipped)
// where the process has no /proc/self/status to read.
#include <algorithm>
#include <cstddef>
#include <iostream>
#include <optional>

#include "core/trace.hpp"
#include "core/trace_io.hpp"
#include "gcached/gcached.hpp"
#include "policies/lru_list.hpp"
#include "vm_hwm.hpp"

namespace {

/// Less than one MiB, for what the bound leaves out: shard headers, client
/// slots, allocator headers and 4 KiB page rounding.
constexpr std::size_t kSlackBytes = std::size_t{768} << 10;
constexpr std::size_t kShards = 8;

}  // namespace

int main(int argc, char** argv) {
  using namespace gcaching;
  if (argc != 2) {
    std::cerr << "usage: setup_footprint TRACE.gct\n";
    return 2;
  }
  const TraceView view(argv[1]);
  const std::optional<std::size_t> before = vm_hwm_kib();
  if (!before) {
    std::cout << "no VmHWM in /proc/self/status; skipped\n";
    return 77;
  }
  const Workload w = view.materialize();
  gcached::GcachedConfig cfg;
  cfg.num_shards = kShards;
  cfg.capacity = 16384;
  (void)gcached::make_concurrent_cache("block-lru", w.map, cfg);
  cfg.capacity = 65536;
  (void)gcached::make_concurrent_cache("item-lru", w.map, cfg);
  const std::size_t after = vm_hwm_kib().value_or(0);
  const std::size_t growth = after > *before ? after - *before : 0;

  // Shard sizes, taken after the measurement.
  const gcached::ShardLocalIds ids(*w.map, kShards);
  constexpr std::size_t kNodeBytes = 2 * sizeof(IndexedList::Id);
  std::size_t item_lru = 0;
  std::size_t block_lru = 0;
  std::size_t widest = 0;
  for (std::size_t s = 0; s < kShards; ++s) {
    const BlockMap& shard = ids.shard_map(s);
    item_lru += shard.num_items() + (shard.num_items() + 1) * kNodeBytes;
    block_lru += shard.num_items() + (shard.num_blocks() + 1) * kNodeBytes;
    widest = std::max(widest, shard.num_items());
  }
  const std::size_t bound_bytes =
      w.trace.size() * (sizeof(ItemId) + sizeof(BlockId)) +
      std::max(item_lru, block_lru) + w.map->num_blocks() * sizeof(BlockId) +
      widest * sizeof(ItemId) + kSlackBytes;
  const std::size_t bound = bound_bytes / 1024;
  std::cout << "load + " << kShards << "-shard block-lru and item-lru set-up of "
            << w.trace.size() << " accesses: VmHWM +" << growth
            << " KiB (bound " << bound << " KiB)\n";
  return growth <= bound ? 0 : 1;
}
