// Footprint guard for TraceView::materialize: loads a gctrace in a process
// of its own and fails unless the peak resident set (VmHWM) grew by at
// most the two trace-length vectors (items and block ids), one chunk of
// the mapped file and one huge page. The chunked load holds no more than
// that at once, whatever page size the vectors fault in with.
//
//   materialize_footprint TRACE.gct
//
// Exits 0 within the bound, 1 over it, 2 on bad usage, and 77 (skipped)
// where the process has no /proc/self/status to read.
#include <cstddef>
#include <iostream>
#include <optional>

#include "core/trace.hpp"
#include "core/trace_io.hpp"
#include "vm_hwm.hpp"

int main(int argc, char** argv) {
  using namespace gcaching;
  if (argc != 2) {
    std::cerr << "usage: materialize_footprint TRACE.gct\n";
    return 2;
  }
  const TraceView view(argv[1]);
  const std::optional<std::size_t> before = vm_hwm_kib();
  if (!before) {
    std::cout << "no VmHWM in /proc/self/status; skipped\n";
    return 77;
  }
  const Workload w = view.materialize();
  const std::size_t after = vm_hwm_kib().value_or(0);
  const std::size_t growth = after > *before ? after - *before : 0;
  const std::size_t bound_bytes =
      w.trace.size() * (sizeof(ItemId) + sizeof(BlockId)) +
      kTraceChunkAccesses * sizeof(ItemId) + kHugePageBytes;
  const std::size_t bound = bound_bytes / 1024;
  std::cout << "materialize of " << w.trace.size() << " accesses: VmHWM +"
            << growth << " KiB (bound " << bound << " KiB)\n";
  return growth <= bound ? 0 : 1;
}
