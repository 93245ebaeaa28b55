#include "core/trace_io.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <istream>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>

#if defined(__unix__) || defined(__APPLE__)
#define GC_TRACE_BIN_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

#include "util/contracts.hpp"
#include "util/parse.hpp"

namespace gcaching {

namespace {

[[noreturn]] void parse_fail(const std::string& detail) {
  throw std::runtime_error("gcworkload parse error: " + detail);
}

/// Reads the next non-comment, non-empty line.
bool next_content_line(std::istream& is, std::string& line) {
  while (std::getline(is, line)) {
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;
    if (line[first] == '#') continue;
    return true;
  }
  return false;
}

/// Reads the next whitespace-separated token of `is` as an unsigned T
/// under the shared rule of util/parse.hpp. False at the end of the input;
/// a token that is not one fails the load naming `what`.
template <typename T>
bool read_number(std::istream& is, T& out, const char* what) {
  std::string token;
  if (!(is >> token)) return false;
  const std::optional<T> v = parse_number<T>(token);
  if (!v) parse_fail(std::string("malformed ") + what + ": '" + token + "'");
  out = *v;
  return true;
}

}  // namespace

void save_workload(std::ostream& os, const Workload& w) {
  GC_REQUIRE(w.map != nullptr, "workload has no block map");
  os << "gcworkload v1\n";
  if (!w.name.empty()) os << "name " << w.name << '\n';
  os << "items " << w.map->num_items() << " blocks " << w.map->num_blocks()
     << " maxblock " << w.map->max_block_size() << '\n';
  if (dynamic_cast<const UniformBlockMap*>(w.map.get()) != nullptr) {
    os << "uniform " << w.map->max_block_size() << '\n';
  } else {
    for (BlockId j = 0; j < w.map->num_blocks(); ++j) {
      os << "block " << j;
      for (ItemId it : w.map->items_of(j)) os << ' ' << it;
      os << '\n';
    }
  }
  os << "trace " << w.trace.size() << '\n';
  std::size_t col = 0;
  for (ItemId it : w.trace) {
    os << it << ((++col % 16 == 0) ? '\n' : ' ');
  }
  if (col % 16 != 0) os << '\n';
}

Workload load_workload(std::istream& is) {
  std::string line;
  if (!next_content_line(is, line))
    parse_fail("missing 'gcworkload v1' header");
  {
    // The version line ends after `v1`, like every header line.
    std::istringstream ls(line);
    std::string magic, version, extra;
    if (!(ls >> magic >> version) || magic != "gcworkload" ||
        version != "v1" || ls >> extra)
      parse_fail("missing 'gcworkload v1' header");
  }

  Workload w;
  std::size_t n_items = 0, n_blocks = 0, max_block = 0, trace_len = 0;
  std::vector<std::vector<ItemId>> blocks;
  bool uniform = false;
  std::size_t uniform_b = 0;

  while (next_content_line(is, line)) {
    std::istringstream ls(line);
    std::string key;
    ls >> key;
    // A header line ends after its last field.
    const auto ended = [&ls] {
      std::string extra;
      return !(ls >> extra);
    };
    if (key == "name") {
      std::string rest;
      std::getline(ls, rest);
      const auto first = rest.find_first_not_of(' ');
      w.name = (first == std::string::npos) ? "" : rest.substr(first);
    } else if (key == "items") {
      std::string kw1, kw2;
      if (!(read_number(ls, n_items, "item count") && ls >> kw1 &&
            read_number(ls, n_blocks, "block count") && ls >> kw2 &&
            read_number(ls, max_block, "maxblock") && ended()) ||
          kw1 != "blocks" || kw2 != "maxblock")
        parse_fail("malformed 'items' line: " + line);
    } else if (key == "uniform") {
      if (!(read_number(ls, uniform_b, "uniform block size") && ended()))
        parse_fail("malformed 'uniform' line");
      uniform = true;
    } else if (key == "block") {
      BlockId j = 0;
      if (!read_number(ls, j, "block id"))
        parse_fail("malformed 'block' line");
      if (j != blocks.size()) parse_fail("block ids must appear in order");
      std::vector<ItemId> items;
      ItemId it = 0;
      while (read_number(ls, it, "item id")) items.push_back(it);
      if (items.empty()) parse_fail("empty block in input");
      blocks.push_back(std::move(items));
    } else if (key == "trace") {
      if (!(read_number(ls, trace_len, "trace length") && ended()))
        parse_fail("malformed 'trace' line");
      // The declared length is a claim, not a size to allocate up front:
      // the ids grow the vector as they arrive.
      std::vector<ItemId> acc;
      ItemId it = 0;
      while (acc.size() < trace_len && read_number(is, it, "trace id"))
        acc.push_back(it);
      if (acc.size() != trace_len)
        parse_fail("trace shorter than declared length");
      w.trace = Trace(std::move(acc));
      break;  // trace is the final section
    } else {
      parse_fail("unknown directive: " + key);
    }
  }

  if (n_items == 0) parse_fail("missing 'items' line");
  if (uniform) {
    w.map = std::make_shared<UniformBlockMap>(n_items, uniform_b);
  } else {
    if (blocks.empty()) parse_fail("missing block partition");
    w.map = std::make_shared<ExplicitBlockMap>(std::move(blocks));
  }
  if (w.map->num_blocks() != n_blocks)
    parse_fail("block count does not match header");
  if (w.map->max_block_size() > max_block)
    parse_fail("block size exceeds declared maxblock");
  w.validate();
  return w;
}

void save_workload_file(const std::string& path, const Workload& w) {
  std::ofstream os(path, std::ios::trunc);
  if (!os) throw std::runtime_error("cannot open for write: " + path);
  save_workload(os, w);
}

Workload load_workload_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot open for read: " + path);
  return load_workload(is);
}

// ---- Binary `gctrace` format ----------------------------------------------
//
// Layout (all integers little-endian):
//   byte  0: magic "GCTB"
//   byte  4: u32 version (currently 1)
//   byte  8: u64 num_items
//   byte 16: u64 block_size          (uniform partition parameter B)
//   byte 24: u64 num_accesses
//   byte 32: u64 name_len            (<= kMaxNameLen)
//   byte 40: name bytes, zero-padded to a multiple of 8
//   then   : num_accesses fixed-width u32 item-id records
// The 8-byte name padding keeps the record array 4-byte aligned for the
// mmap path.

namespace {

constexpr char kTraceBinMagic[4] = {'G', 'C', 'T', 'B'};
constexpr std::uint32_t kTraceBinVersion = 1;
constexpr std::size_t kTraceBinHeaderSize = 40;
constexpr std::uint64_t kMaxNameLen = 1 << 16;
constexpr std::size_t kRecordSize = sizeof(ItemId);

std::size_t padded_name_len(std::uint64_t name_len) {
  return static_cast<std::size_t>((name_len + 7) / 8 * 8);
}

[[noreturn]] void bin_fail(const std::string& path, const std::string& what) {
  throw std::runtime_error("gctrace error: " + path + ": " + what);
}

void put_u32(std::string& buf, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    buf.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_u64(std::string& buf, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    buf.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

std::uint32_t get_u32(const unsigned char* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

std::uint64_t get_u64(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

}  // namespace

void save_trace_bin_file(const std::string& path, const Workload& w) {
  GC_REQUIRE(w.map != nullptr, "workload has no block map");
  const auto* uniform = dynamic_cast<const UniformBlockMap*>(w.map.get());
  GC_REQUIRE(uniform != nullptr,
             "gctrace stores uniform partitions only — save explicit "
             "partitions in the text format");
  GC_REQUIRE(w.name.size() <= kMaxNameLen, "workload name too long");

  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) throw std::runtime_error("cannot open for write: " + path);

  std::string header;
  header.append(kTraceBinMagic, sizeof(kTraceBinMagic));
  put_u32(header, kTraceBinVersion);
  put_u64(header, w.map->num_items());
  put_u64(header, w.map->max_block_size());
  put_u64(header, w.trace.size());
  put_u64(header, w.name.size());
  header += w.name;
  header.resize(kTraceBinHeaderSize + padded_name_len(w.name.size()), '\0');
  os.write(header.data(), static_cast<std::streamsize>(header.size()));

  if constexpr (std::endian::native == std::endian::little) {
    // Record array is already the on-disk layout; write it in one go.
    os.write(reinterpret_cast<const char*>(w.trace.accesses().data()),
             static_cast<std::streamsize>(w.trace.size() * kRecordSize));
  } else {
    std::string rec;
    rec.reserve(w.trace.size() * kRecordSize);
    for (const ItemId item : w.trace) put_u32(rec, item);
    os.write(rec.data(), static_cast<std::streamsize>(rec.size()));
  }
  if (!os) throw std::runtime_error("write failed: " + path);
}

bool is_trace_bin_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return false;
  char magic[4] = {};
  is.read(magic, sizeof(magic));
  return is.gcount() == sizeof(magic) &&
         std::memcmp(magic, kTraceBinMagic, sizeof(magic)) == 0;
}

TraceView::TraceView(const std::string& path) {
  // Read and validate the fixed header + name through a plain stream first;
  // only the record array is mapped/bulk-read.
  std::ifstream is(path, std::ios::binary);
  if (!is) bin_fail(path, "cannot open for read");
  is.seekg(0, std::ios::end);
  const std::uint64_t file_size = static_cast<std::uint64_t>(is.tellg());
  is.seekg(0, std::ios::beg);

  if (file_size < kTraceBinHeaderSize)
    bin_fail(path, "file is " + std::to_string(file_size) +
                       " bytes — shorter than the " +
                       std::to_string(kTraceBinHeaderSize) +
                       "-byte gctrace header");
  unsigned char header[kTraceBinHeaderSize];
  is.read(reinterpret_cast<char*>(header), kTraceBinHeaderSize);
  if (std::memcmp(header, kTraceBinMagic, sizeof(kTraceBinMagic)) != 0)
    bin_fail(path, "bad magic — not a gctrace file");
  const std::uint32_t version = get_u32(header + 4);
  if (version != kTraceBinVersion)
    bin_fail(path, "unsupported gctrace version " + std::to_string(version));
  num_items_ = get_u64(header + 8);
  block_size_ = get_u64(header + 16);
  const std::uint64_t num_accesses = get_u64(header + 24);
  const std::uint64_t name_len = get_u64(header + 32);
  if (num_items_ == 0 || num_items_ > std::uint64_t{1} << 32)
    bin_fail(path, "invalid num_items " + std::to_string(num_items_));
  // B is the model's bound on a block's size, not a block count, so a B
  // above num_items is one block of num_items items: the text format and
  // UniformBlockMap accept it, and so does this reader.
  if (block_size_ == 0)
    bin_fail(path, "invalid block_size " + std::to_string(block_size_));
  if (name_len > kMaxNameLen)
    bin_fail(path, "name length " + std::to_string(name_len) +
                       " exceeds the format limit");

  const std::uint64_t records_off =
      kTraceBinHeaderSize + padded_name_len(name_len);
  // Compare record counts, never records_off + num_accesses * kRecordSize:
  // a header count near 2^62 wraps that sum around to a plausible size.
  const std::uint64_t record_bytes =
      file_size > records_off ? file_size - records_off : 0;
  const std::uint64_t complete_records = record_bytes / kRecordSize;
  if (file_size < records_off || num_accesses != complete_records ||
      record_bytes % kRecordSize != 0) {
    // The single loudest failure mode of a binary format is a short file
    // read as a shorter trace. Report exactly where the stream ends.
    const bool truncated =
        file_size < records_off || num_accesses > complete_records;
    const std::string expected =
        num_accesses <= (UINT64_MAX - records_off) / kRecordSize
            ? std::to_string(records_off + num_accesses * kRecordSize)
            : "more than " + std::to_string(UINT64_MAX);
    bin_fail(path,
             (truncated ? "truncated: " : "trailing garbage: ") +
                 std::string("file is ") + std::to_string(file_size) +
                 " bytes, expected " + expected + " (" +
                 std::to_string(num_accesses) + " records x " +
                 std::to_string(kRecordSize) + " bytes starting at byte " +
                 std::to_string(records_off) + "; file ends after " +
                 std::to_string(complete_records) +
                 " complete records at byte " + std::to_string(file_size) +
                 ")");
  }

  name_.resize(name_len);
  if (name_len > 0) {
    is.read(name_.data(), static_cast<std::streamsize>(name_len));
    if (!is) bin_fail(path, "cannot read name field");
  }
  num_accesses_ = static_cast<std::size_t>(num_accesses);

#if defined(GC_TRACE_BIN_MMAP)
  if constexpr (std::endian::native == std::endian::little) {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd >= 0) {
      void* addr = nullptr;
      if (file_size > 0)
        addr = ::mmap(nullptr, static_cast<std::size_t>(file_size), PROT_READ,
                      MAP_PRIVATE, fd, 0);
      ::close(fd);
      if (addr != nullptr && addr != MAP_FAILED) {
        map_addr_ = addr;
        map_len_ = static_cast<std::size_t>(file_size);
        data_ = reinterpret_cast<const ItemId*>(
            static_cast<const char*>(addr) + records_off);
        // Sequential streaming is the expected access pattern.
        ::madvise(addr, map_len_, MADV_SEQUENTIAL);
        return;
      }
    }
    // fall through to the owned-buffer path on any mmap failure
  }
#endif
  owned_.resize(num_accesses_);
  is.seekg(static_cast<std::streamoff>(records_off), std::ios::beg);
  if (num_accesses_ > 0) {
    if constexpr (std::endian::native == std::endian::little) {
      is.read(reinterpret_cast<char*>(owned_.data()),
              static_cast<std::streamsize>(num_accesses_ * kRecordSize));
    } else {
      std::vector<unsigned char> raw(num_accesses_ * kRecordSize);
      is.read(reinterpret_cast<char*>(raw.data()),
              static_cast<std::streamsize>(raw.size()));
      for (std::size_t i = 0; i < num_accesses_; ++i)
        owned_[i] = get_u32(raw.data() + i * kRecordSize);
    }
    if (!is) bin_fail(path, "cannot read record stream");
  }
  data_ = owned_.data();
}

TraceView::~TraceView() { release(); }

void TraceView::release() noexcept {
#if defined(GC_TRACE_BIN_MMAP)
  if (map_addr_ != nullptr) ::munmap(map_addr_, map_len_);
#endif
  map_addr_ = nullptr;
  map_len_ = 0;
  data_ = nullptr;
}

TraceView::TraceView(TraceView&& other) noexcept
    : data_(other.data_),
      num_accesses_(other.num_accesses_),
      num_items_(other.num_items_),
      block_size_(other.block_size_),
      name_(std::move(other.name_)),
      owned_(std::move(other.owned_)),
      map_addr_(other.map_addr_),
      map_len_(other.map_len_) {
  if (!owned_.empty()) data_ = owned_.data();
  other.map_addr_ = nullptr;
  other.map_len_ = 0;
  other.data_ = nullptr;
  other.num_accesses_ = 0;
}

TraceView& TraceView::operator=(TraceView&& other) noexcept {
  if (this == &other) return *this;
  release();
  data_ = other.data_;
  num_accesses_ = other.num_accesses_;
  num_items_ = other.num_items_;
  block_size_ = other.block_size_;
  name_ = std::move(other.name_);
  owned_ = std::move(other.owned_);
  map_addr_ = other.map_addr_;
  map_len_ = other.map_len_;
  if (!owned_.empty()) data_ = owned_.data();
  other.map_addr_ = nullptr;
  other.map_len_ = 0;
  other.data_ = nullptr;
  other.num_accesses_ = 0;
  return *this;
}

std::shared_ptr<const BlockMap> TraceView::make_map() const {
  return make_uniform_blocks(static_cast<std::size_t>(num_items_),
                             static_cast<std::size_t>(block_size_));
}

Workload TraceView::materialize() const {
  // One pass in ~1 MiB chunks. Each chunk's pages of the items vector are
  // populated and the records copied in; (when mapped) the copied pages of
  // the read-only mapping are released, so a load never holds the file's
  // pages and the whole copy at once (a later accesses() re-faults them);
  // then the chunk's block ids are written while its items are in cache.
  // Populating per chunk, after the release, keeps the peak footprint that
  // of the two vectors. Both are written end to end, so both are advised
  // huge pages before their first chunk is populated.
  Workload w;
  w.map = make_map();
  w.name = name_;
  std::vector<ItemId> acc;
  acc.reserve(num_accesses_);
  advise_huge_pages(acc.data(), num_accesses_ * sizeof(ItemId));
  BlockIdVector ids;
  ids.reserve(num_accesses_);
  advise_huge_pages(ids.data(), num_accesses_ * sizeof(BlockId));
#if defined(GC_TRACE_BIN_MMAP)
  const std::size_t page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  std::size_t released = 0;  // bytes of the mapping released so far
#endif
  for (std::size_t first = 0; first < num_accesses_;
       first += kTraceChunkAccesses) {
    const std::size_t last =
        std::min(first + kTraceChunkAccesses, num_accesses_);
    populate_pages_for_write(acc.data() + first,
                             (last - first) * sizeof(ItemId));
    acc.insert(acc.end(), data_ + first, data_ + last);
#if defined(GC_TRACE_BIN_MMAP)
    if (map_addr_ != nullptr) {
      char* base = static_cast<char*>(map_addr_);
      const auto copied = static_cast<std::size_t>(
          reinterpret_cast<const char*>(data_ + last) - base);
      const std::size_t upto =
          last == num_accesses_ ? map_len_ : copied / page * page;
      if (upto > released) {
        ::madvise(base + released, upto - released, MADV_DONTNEED);
        released = upto;
      }
    }
#endif
    // Range-checks the chunk against the header's universe too.
    append_block_ids(*w.map, std::span(acc).subspan(first), ids);
  }
  w.trace = Trace(std::move(acc), *w.map, std::move(ids));
  return w;
}

}  // namespace gcaching
