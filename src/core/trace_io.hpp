// Serialization of workloads (block partition + trace), in two formats.
//
// Text (`gcworkload v1`, line-oriented, '#' comments allowed):
//   gcworkload v1
//   name <free text to end of line>
//   items <n> blocks <m> maxblock <B>
//   block <j> <item> <item> ...        (m lines; omitted for uniform maps)
//   uniform <B>                        (alternative to the m block lines)
//   trace <len>
//   <item> <item> ... (whitespace separated, any line breaks)
//
// The text format is deliberately trivial: reproduction artifacts should be
// greppable and diffable. It is also ~10 bytes per access, parsed at text
// speed — unusable at production trace scale. The binary `gctrace` format
// (docs/FORMATS.md) is the scale path: a fixed 40-byte header (uniform
// partitions only), a zero-padded name, then one fixed-width little-endian
// u32 record per access. `TraceView` maps the record array directly
// (mmap-backed on POSIX), so samplers and analyzers stream a
// billion-request file sequentially without materializing it in RAM.
// Loaders of both formats fail loudly on short/corrupt input — a truncated
// record stream reports the expected size, the actual size, and the byte
// offset where the stream ends, never a silently shorter trace.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>

#include "core/trace.hpp"

namespace gcaching {

/// Serialize a workload to a stream. Uniform maps are stored compactly.
void save_workload(std::ostream& os, const Workload& w);

/// Parse a workload; throws std::runtime_error on malformed input.
Workload load_workload(std::istream& is);

/// File-path convenience wrappers.
void save_workload_file(const std::string& path, const Workload& w);
Workload load_workload_file(const std::string& path);

// ---- Binary `gctrace` format ----------------------------------------------

/// Write `w` as a binary gctrace file. The workload's partition must be
/// uniform (UniformBlockMap) — the header stores (num_items, block_size)
/// instead of an explicit partition; explicit partitions stay in the text
/// format. Throws std::runtime_error on I/O failure.
void save_trace_bin_file(const std::string& path, const Workload& w);

/// True when `path` starts with the gctrace magic — used by tools that
/// accept either format on one flag.
bool is_trace_bin_file(const std::string& path);

/// Read-only view of a binary gctrace file. On POSIX little-endian hosts
/// the record array is memory-mapped, so `accesses()` spans the file
/// itself: opening is O(1), and a sequential pass streams through the page
/// cache regardless of file size. Elsewhere the records are read into an
/// owned buffer. All header/size validation happens in the constructor —
/// truncation and corruption throw std::runtime_error with the offending
/// byte offset and the expected record size.
class TraceView {
 public:
  explicit TraceView(const std::string& path);
  ~TraceView();

  TraceView(TraceView&& other) noexcept;
  TraceView& operator=(TraceView&& other) noexcept;
  TraceView(const TraceView&) = delete;
  TraceView& operator=(const TraceView&) = delete;

  /// The whole record array, one ItemId per access, in trace order.
  std::span<const ItemId> accesses() const noexcept {
    return {data_, num_accesses_};
  }
  std::size_t size() const noexcept { return num_accesses_; }

  std::uint64_t num_items() const noexcept { return num_items_; }
  std::uint64_t block_size() const noexcept { return block_size_; }
  const std::string& name() const noexcept { return name_; }

  /// A fresh UniformBlockMap matching the header geometry.
  std::shared_ptr<const BlockMap> make_map() const;

  /// Materialize the whole file as an in-RAM workload (copies the record
  /// array — use only when the trace is meant to fit; samplers should
  /// filter from accesses() instead). The returned trace carries its block
  /// ids against the returned map, produced in the same chunked pass, so a
  /// later `w.trace.precompute_block_ids(*w.map)` returns at once. Throws
  /// ContractViolation "trace references item outside the map" for a
  /// record >= num_items(). The copied pages of the mapping are released
  /// as the copy proceeds (docs/FORMATS.md).
  Workload materialize() const;

 private:
  void release() noexcept;

  const ItemId* data_ = nullptr;
  std::size_t num_accesses_ = 0;
  std::uint64_t num_items_ = 0;
  std::uint64_t block_size_ = 0;
  std::string name_;
  std::vector<ItemId> owned_;   // non-mmap fallback
  void* map_addr_ = nullptr;    // mmap base (whole file), or nullptr
  std::size_t map_len_ = 0;
};

}  // namespace gcaching
