// Binary `gctrace` format (core/trace_io.hpp): round-trip fidelity and,
// above all, LOUD failure on short or corrupt files. A binary trace that
// silently loads shorter than it was written poisons every downstream
// number, so the truncation error message is pinned here: it must name the
// actual size, the expected size, the record size, and the byte offset
// where the stream ends.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "core/trace_io.hpp"
#include "traces/synthetic.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace gcaching {
namespace {

std::string tmp_path(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

Workload small_workload() {
  Workload w = traces::zipf_items(1024, 16, 500, 0.9, 3);
  w.name = "bin round trip";
  return w;
}

TEST(TraceBin, RoundTripPreservesEverything) {
  const Workload w = small_workload();
  const std::string path = tmp_path("roundtrip.gct");
  save_trace_bin_file(path, w);

  const TraceView view(path);
  EXPECT_EQ(view.size(), w.trace.size());
  EXPECT_EQ(view.num_items(), w.map->num_items());
  EXPECT_EQ(view.block_size(), w.map->max_block_size());
  EXPECT_EQ(view.name(), w.name);
  ASSERT_EQ(view.accesses().size(), w.trace.size());
  for (std::size_t i = 0; i < w.trace.size(); ++i)
    ASSERT_EQ(view.accesses()[i], w.trace[i]) << "record " << i;

  const Workload back = view.materialize();
  EXPECT_EQ(back.trace.accesses(), w.trace.accesses());
  EXPECT_EQ(back.name, w.name);
  EXPECT_EQ(back.map->num_items(), w.map->num_items());
  EXPECT_EQ(back.map->max_block_size(), w.map->max_block_size());
}

TEST(TraceBin, EmptyNameAndUnpaddedNameRoundTrip) {
  for (const std::string& name : {std::string{}, std::string{"x"},
                                  std::string{"exactly8"},
                                  std::string{"nine char"}}) {
    Workload w = small_workload();
    w.name = name;
    const std::string path = tmp_path("name.gct");
    save_trace_bin_file(path, w);
    const TraceView view(path);
    EXPECT_EQ(view.name(), name);
    EXPECT_EQ(view.size(), w.trace.size());
  }
}

TEST(TraceBin, DetectsFormatByMagic) {
  const Workload w = small_workload();
  const std::string bin = tmp_path("detect.gct");
  const std::string text = tmp_path("detect.gcw");
  save_trace_bin_file(bin, w);
  save_workload_file(text, w);
  EXPECT_TRUE(is_trace_bin_file(bin));
  EXPECT_FALSE(is_trace_bin_file(text));
  EXPECT_FALSE(is_trace_bin_file(tmp_path("does-not-exist.gct")));
}

TEST(TraceBin, ExplicitPartitionsAreRejected) {
  Workload w = small_workload();
  std::vector<std::vector<ItemId>> blocks;
  for (ItemId i = 0; i < 16; ++i) blocks.push_back({i});
  w.map = std::make_shared<ExplicitBlockMap>(std::move(blocks));
  w.trace = Trace(std::vector<ItemId>{0, 5, 3});
  EXPECT_THROW(save_trace_bin_file(tmp_path("explicit.gct"), w),
               ContractViolation);
}

// ---- whole_pages_in: the extents advise_huge_pages names -------------------

constexpr std::size_t kH = kHugePageBytes;
constexpr std::uintptr_t kAligned = 64 * kH;

TEST(WholePagesIn, HandCases) {
  // An unaligned start rounds up; the end rounds down.
  EXPECT_EQ(whole_pages_in(kAligned + 1, 3 * kH, kH),
            (PageRun{kAligned + kH, 2 * kH}));
  // Fewer bytes than one page, or a short range across a boundary: none.
  EXPECT_EQ(whole_pages_in(kAligned + 4096, kH - 1, kH).bytes, 0u);
  EXPECT_EQ(whole_pages_in(kAligned, kH - 1, kH).bytes, 0u);
  EXPECT_EQ(whole_pages_in(kAligned + kH - 10, 20, kH).bytes, 0u);
  // An aligned exact multiple is named whole.
  EXPECT_EQ(whole_pages_in(kAligned, 4 * kH, kH), (PageRun{kAligned, 4 * kH}));
  // Zero bytes, aligned or not.
  EXPECT_EQ(whole_pages_in(kAligned, 0, kH).bytes, 0u);
  EXPECT_EQ(whole_pages_in(kAligned + 5, 0, kH).bytes, 0u);
  // An unaligned start whose end falls on a boundary.
  EXPECT_EQ(whole_pages_in(kAligned + kH / 2, 2 * kH + kH / 2, kH),
            (PageRun{kAligned + kH, 2 * kH}));
  // The same rule at the base page size that populate_pages_for_write uses.
  EXPECT_EQ(whole_pages_in(kAligned + 100, 3 * 4096, 4096),
            (PageRun{kAligned + 4096, 2 * 4096}));
}

// Over a grid of starts and lengths around page boundaries, the run is
// aligned, lies inside the range, and leaves less than a page at each end.
TEST(WholePagesIn, NeverNamesAByteOutsideTheRange) {
  for (const std::size_t page : {std::size_t{4096}, kH}) {
    for (const std::uintptr_t off :
         {std::uintptr_t{0}, std::uintptr_t{1}, std::uintptr_t{4095},
          std::uintptr_t{4096}, kH - 1, kH, kH + 1}) {
      for (const std::size_t bytes :
           {std::size_t{0}, std::size_t{1}, page - 1, page, page + 1,
            2 * page - 1, 2 * page, 3 * page + 7}) {
        const std::uintptr_t begin = kAligned + off;
        const PageRun run = whole_pages_in(begin, bytes, page);
        SCOPED_TRACE("page " + std::to_string(page) + " offset " +
                     std::to_string(off) + " bytes " + std::to_string(bytes));
        EXPECT_EQ(run.bytes % page, 0u);
        if (run.bytes == 0) {
          // No whole page fits: the first boundary after begin plus a page
          // lies past the end.
          EXPECT_GT((begin + page - 1) / page * page + page, begin + bytes);
          continue;
        }
        EXPECT_EQ(run.first % page, 0u);
        EXPECT_GE(run.first, begin);
        EXPECT_LE(run.first + run.bytes, begin + bytes);
        EXPECT_LT(run.first - begin, page);
        EXPECT_LT(begin + bytes - (run.first + run.bytes), page);
      }
    }
  }
}

// ---- loud corruption errors -----------------------------------------------

/// Writes a valid file and returns (path, expected total size).
std::pair<std::string, std::uint64_t> valid_file(const std::string& name) {
  const Workload w = small_workload();
  const std::string path = tmp_path(name);
  save_trace_bin_file(path, w);
  return {path, std::filesystem::file_size(path)};
}

std::string error_of(const std::string& path) {
  try {
    const TraceView view(path);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  ADD_FAILURE() << "TraceView(" << path << ") did not throw";
  return {};
}

// The pinned regression: truncating mid-record must fail with a message
// naming the byte offset where records start, the expected record size,
// the expected and actual file sizes, and the last complete record.
TEST(TraceBin, TruncatedMidRecordFailsWithOffsets) {
  const auto [path, full_size] = valid_file("truncated.gct");
  // Cut two records plus 2 bytes, landing mid-record.
  const std::uint64_t cut_size = full_size - 2 * sizeof(ItemId) - 2;
  std::filesystem::resize_file(path, cut_size);

  const std::string msg = error_of(path);
  EXPECT_NE(msg.find("truncated"), std::string::npos) << msg;
  EXPECT_NE(msg.find("file is " + std::to_string(cut_size) + " bytes"),
            std::string::npos)
      << msg;
  EXPECT_NE(msg.find("expected " + std::to_string(full_size)),
            std::string::npos)
      << msg;
  EXPECT_NE(msg.find("x " + std::to_string(sizeof(ItemId)) + " bytes"),
            std::string::npos)
      << msg;
  EXPECT_NE(msg.find("starting at byte"), std::string::npos) << msg;
  EXPECT_NE(msg.find("complete records"), std::string::npos) << msg;
}

TEST(TraceBin, TruncatedInsideHeaderFailsLoudly) {
  const auto [path, full_size] = valid_file("shortheader.gct");
  (void)full_size;
  std::filesystem::resize_file(path, 17);
  const std::string msg = error_of(path);
  EXPECT_NE(msg.find("file is 17 bytes"), std::string::npos) << msg;
  EXPECT_NE(msg.find("40-byte gctrace header"), std::string::npos) << msg;
}

TEST(TraceBin, TrailingGarbageFailsLoudly) {
  const auto [path, full_size] = valid_file("trailing.gct");
  {
    std::ofstream os(path, std::ios::binary | std::ios::app);
    os << "junk";
  }
  const std::string msg = error_of(path);
  EXPECT_NE(msg.find("trailing garbage"), std::string::npos) << msg;
  EXPECT_NE(msg.find("expected " + std::to_string(full_size)),
            std::string::npos)
      << msg;
}

TEST(TraceBin, BadMagicAndBadVersionFailLoudly) {
  const auto [path, full_size] = valid_file("magic.gct");
  (void)full_size;
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.write("NOPE", 4);
  }
  EXPECT_NE(error_of(path).find("bad magic"), std::string::npos);
  {
    const Workload w = small_workload();
    save_trace_bin_file(path, w);
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(4);
    const char v2[4] = {2, 0, 0, 0};
    f.write(v2, 4);
  }
  EXPECT_NE(error_of(path).find("unsupported gctrace version 2"),
            std::string::npos);
}

/// Writes a gctrace file by hand: a 40-byte header with an empty name and a
/// declared record count, followed by `records` verbatim.
void write_raw_trace(const std::string& path, std::uint64_t num_items,
                     std::uint64_t num_accesses,
                     const std::vector<std::uint32_t>& records) {
  std::string bytes = "GCTB";
  const auto put = [&bytes](std::uint64_t v, int width) {
    for (int i = 0; i < width; ++i)
      bytes.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  };
  put(1, 4);              // version
  put(num_items, 8);
  put(16, 8);             // block size
  put(num_accesses, 8);
  put(0, 8);              // name length
  for (const std::uint32_t r : records) put(r, 4);
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// A record count whose byte size wraps around 2^64 must not pass the size
// check: 48 bytes holding 2 records, under a header claiming 2^62 + 2.
TEST(TraceBin, RecordCountThatOverflowsFailsLoudly) {
  const std::string path = tmp_path("overflow.gct");
  write_raw_trace(path, 64, (std::uint64_t{1} << 62) + 2, {1, 2});
  ASSERT_EQ(std::filesystem::file_size(path), 48u);
  const std::string msg = error_of(path);
  EXPECT_NE(msg.find("truncated"), std::string::npos) << msg;
  EXPECT_NE(msg.find("file is 48 bytes"), std::string::npos) << msg;
  EXPECT_NE(msg.find("4611686018427387906 records"), std::string::npos)
      << msg;
  EXPECT_NE(msg.find("starting at byte 40"), std::string::npos) << msg;
}

// A record outside the header's universe loads (the view does not scan the
// records) but must not materialize.
TEST(TraceBin, OutOfRangeRecordFailsLoudly) {
  const std::string path = tmp_path("outofrange.gct");
  write_raw_trace(path, 64, 3, {0, 63, 64});
  const TraceView view(path);
  try {
    (void)view.materialize();
    ADD_FAILURE() << "a record equal to num_items did not throw";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "trace references item outside the map"),
              std::string::npos)
        << e.what();
  }
}

// ---- materialize: one chunked pass that also yields the block ids --------

// 600,000 records span three ~1 MiB materialize chunks, the last ragged.
constexpr std::size_t kMultiChunkRecords = 600'000;
static_assert(kMultiChunkRecords > 2 * kTraceChunkAccesses &&
              kMultiChunkRecords < 3 * kTraceChunkAccesses &&
              kMultiChunkRecords % kTraceChunkAccesses != 0);

// 1,600,003 records: each 6.4 MB array holds at least two whole 2 MiB
// extents wherever the allocator places it, so materialize advises and
// populates huge pages in both, and the last chunk is ragged.
constexpr std::size_t kHugeExtentRecords = 1'600'003;
static_assert(kHugeExtentRecords * sizeof(ItemId) >= 3 * kHugePageBytes &&
              kHugeExtentRecords % kTraceChunkAccesses != 0);

/// A uniform-partition workload of `length` random accesses over
/// `num_items` items, whose last access is the universe's top item.
Workload random_uniform_workload(std::size_t num_items, std::size_t B,
                                 std::size_t length, std::uint64_t seed) {
  SplitMix64 rng(seed);
  std::vector<ItemId> acc(length);
  for (ItemId& it : acc) it = static_cast<ItemId>(rng.below(num_items));
  acc.back() = static_cast<ItemId>(num_items - 1);
  Workload w;
  w.map = make_uniform_blocks(num_items, B);
  w.trace = Trace(std::move(acc));
  w.name = "multi-chunk";
  return w;
}

// The materialized trace carries its block ids against the returned map,
// so a later precompute_block_ids is a no-op, and every id (in every
// chunk, across the ragged last block) is the map's block_of. The larger
// input is advised huge pages (kHugeExtentRecords), which must change
// nothing the trace holds.
TEST(TraceBin, MaterializeCarriesBlockIdsAcrossChunks) {
  constexpr std::size_t kItems = 100'003;  // divisible by neither B
  for (const std::size_t records : {kMultiChunkRecords, kHugeExtentRecords}) {
    for (const std::size_t B : {std::size_t{1}, std::size_t{16}}) {
      SCOPED_TRACE("records = " + std::to_string(records) +
                   ", B = " + std::to_string(B));
      const Workload src = random_uniform_workload(kItems, B, records, 11 + B);
      const std::string path = tmp_path("multichunk.gct");
      save_trace_bin_file(path, src);

      Workload w = TraceView(path).materialize();
      ASSERT_EQ(w.trace.accesses(), src.trace.accesses());
      ASSERT_TRUE(w.trace.has_block_ids(*w.map));
      const std::span<const BlockId> ids = w.trace.block_ids();
      ASSERT_EQ(ids.size(), records);
      for (std::size_t i = 0; i < ids.size(); ++i)
        ASSERT_EQ(ids[i], w.map->block_of(w.trace[i])) << "access " << i;
      EXPECT_EQ(ids.back(), (kItems - 1) / B);

      const BlockIdVector again = compute_block_ids(*w.map, w.trace);
      EXPECT_TRUE(std::equal(again.begin(), again.end(), ids.begin(),
                             ids.end()));
      const BlockId* before = ids.data();
      w.trace.precompute_block_ids(*w.map);
      EXPECT_EQ(w.trace.block_ids().data(), before)
          << "precompute_block_ids recomputed ids materialize produced";
    }
  }
}

// The range check rides on the id pass, so it must cover every chunk: a
// record equal to num_items in the ragged last chunk still throws.
TEST(TraceBin, OutOfRangeRecordInLastChunkFailsLoudly) {
  constexpr std::size_t kItems = 4099;
  const Workload src =
      random_uniform_workload(kItems, 16, kMultiChunkRecords, 5);
  std::vector<std::uint32_t> records(src.trace.begin(), src.trace.end());
  records[kMultiChunkRecords - 7] = kItems;
  const std::string path = tmp_path("outofrange_last_chunk.gct");
  write_raw_trace(path, kItems, records.size(), records);
  const TraceView view(path);
  try {
    (void)view.materialize();
    ADD_FAILURE() << "a record equal to num_items did not throw";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "trace references item outside the map"),
              std::string::npos)
        << e.what();
  }
}

// The largest universe a gctrace holds, with B = num_items = 2^32: B has no
// 32-bit shift, so the reciprocal divides, and the top item stays in block 0.
TEST(TraceBin, TwoToThe32ItemsInOneBlockMaterializeToBlockZero) {
  constexpr std::size_t k32 = std::size_t{1} << 32;
  Workload src;
  src.map = make_uniform_blocks(k32, k32);
  src.trace = Trace(std::vector<ItemId>{0, ItemId{0xFFFFFFFF}, 0});
  src.name = "one block";
  const std::string path = tmp_path("one_block.gct");
  save_trace_bin_file(path, src);

  const Workload w = TraceView(path).materialize();
  EXPECT_EQ(w.map->num_items(), k32);
  EXPECT_EQ(w.map->max_block_size(), k32);
  ASSERT_EQ(w.trace.accesses(), src.trace.accesses());
  ASSERT_TRUE(w.trace.has_block_ids(*w.map));
  for (const BlockId id : w.trace.block_ids()) EXPECT_EQ(id, 0u);
}

// B above num_items is one block, in the gctrace as in the text format: what
// the writer writes, the reader loads with the B it was given.
TEST(TraceBin, BlockSizeAboveNumItemsRoundTrips) {
  const Workload src = traces::zipf_items(100, 128, 400, 0.9, 3);
  const std::string path = tmp_path("b_over_items.gct");
  save_trace_bin_file(path, src);
  const Workload w = TraceView(path).materialize();
  EXPECT_EQ(w.map->num_blocks(), 1u);
  EXPECT_EQ(w.map->max_block_size(), 128u);
  EXPECT_EQ(w.trace.accesses(), src.trace.accesses());
}

TEST(TraceBin, EmptyTraceMaterializesWithEmptyIds) {
  const std::string path = tmp_path("empty.gct");
  write_raw_trace(path, 64, 0, {});
  const TraceView view(path);
  ASSERT_EQ(view.size(), 0u);
  const Workload w = view.materialize();
  EXPECT_TRUE(w.trace.empty());
  EXPECT_TRUE(w.trace.block_ids().empty());
  EXPECT_TRUE(w.trace.has_block_ids(*w.map));
  EXPECT_EQ(w.map->num_items(), 64u);
}

// The text loader's counterpart guarantee, pinned alongside: a declared
// trace length longer than the data must fail, not yield a shorter trace.
TEST(TraceBin, TextLoaderRejectsShortTrace) {
  const std::string path = tmp_path("short.gcw");
  {
    std::ofstream os(path);
    os << "gcworkload v1\n"
       << "items 8 blocks 2 maxblock 4\n"
       << "uniform 4\n"
       << "trace 10\n"
       << "0 1 2 3\n";  // only 4 of the declared 10
  }
  try {
    (void)load_workload_file(path);
    ADD_FAILURE() << "short text trace did not throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("shorter than declared"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace gcaching
