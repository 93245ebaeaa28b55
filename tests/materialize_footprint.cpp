// Footprint guard for TraceView::materialize: loads a gctrace in a process
// of its own and fails unless the peak resident set (VmHWM) grew by at
// most what the chunked load holds at once. Each term of the bound:
//
//   * 2 x n x 4 B: the items and block-id vectors. The load writes both end
//     to end, so the peak comes at its end, when both are whole.
//   * one chunk (kTraceChunkAccesses x 4 B = 1 MiB): the mapped file's
//     pages of the chunk being copied. Each chunk's pages are released
//     before the next chunk is read, the last one's included.
//   * 128 KiB of page slack: the kernel maps up to 64 KiB of file pages
//     around a faulting one (fault-around), and each vector's allocation
//     rounds up to whole pages with glibc's header in front.
//   * under THP `always` only, two huge pages: advise_huge_pages marks only
//     the whole 2 MiB extents inside each vector, so under `madvise` no
//     huge page reaches past a vector. Under `always` the kernel may also
//     back an extent that straddles either outer end of the vectors'
//     adjacent mappings, reaching into memory the load never touches.
//
// A 2 MiB regression in the load therefore fails the bound, except under
// THP `always`, where it may hide in the page-size term.
//
//   materialize_footprint TRACE.gct
//
// Exits 0 within the bound, 1 over it, 2 on bad usage, and 77 (skipped)
// where the process has no /proc/self/status to read.
#include <cstddef>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "core/trace.hpp"
#include "core/trace_io.hpp"
#include "vm_hwm.hpp"

namespace {

/// True when the host backs anonymous memory with huge pages unasked.
bool thp_always() {
  std::ifstream in("/sys/kernel/mm/transparent_hugepage/enabled");
  std::string line;
  std::getline(in, line);
  return line.find("[always]") != std::string::npos;
}

constexpr std::size_t kPageSlackBytes = std::size_t{128} << 10;

}  // namespace

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
      kTraceChunkAccesses * sizeof(ItemId) + kPageSlackBytes +
      (thp_always() ? 2 * kHugePageBytes : 0);
  const std::size_t bound = bound_bytes / 1024;
  std::cout << "materialize of " << w.trace.size() << " accesses: VmHWM +"
            << growth << " KiB (bound " << bound << " KiB)\n";
  return growth <= bound ? 0 : 1;
}
