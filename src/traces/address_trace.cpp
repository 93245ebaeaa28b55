#include "traces/address_trace.hpp"

#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/contracts.hpp"
#include "util/mathx.hpp"
#include "util/parse.hpp"

namespace gcaching::traces {

namespace {

[[noreturn]] void fail(std::size_t line_no, const std::string& detail) {
  throw std::runtime_error("address trace, line " +
                           std::to_string(line_no) + ": " + detail);
}

std::vector<std::string> split_line(const std::string& line, char delim) {
  std::vector<std::string> out;
  if (delim == ' ') {
    // Whitespace mode: collapse runs of spaces/tabs.
    std::istringstream is(line);
    std::string tok;
    while (is >> tok) out.push_back(tok);
    return out;
  }
  std::istringstream is(line);
  std::string tok;
  while (std::getline(is, tok, delim)) out.push_back(tok);
  return out;
}

/// A decimal or 0x-prefixed hexadecimal unsigned field.
std::uint64_t parse_u64(const std::string& s, std::size_t line_no) {
  const bool hex = s.starts_with("0x") || s.starts_with("0X");
  const std::optional<std::uint64_t> v =
      parse_number<std::uint64_t>(std::string_view(s).substr(hex ? 2 : 0),
                                  hex ? 16 : 10);
  if (!v) fail(line_no, "cannot parse number: '" + s + "'");
  return *v;
}

}  // namespace

Workload load_address_trace(std::istream& is,
                            const AddressTraceFormat& fmt) {
  GC_REQUIRE(fmt.item_bytes >= 1 && fmt.block_items >= 1,
             "invalid geometry");
  // Frames are address-space blocks of block_items items, renamed in
  // first-touch order. A frame's id is fixed at its first touch, so each
  // access's item id is final the moment it is read.
  std::unordered_map<std::uint64_t, std::uint32_t> frame_of;
  Workload w;

  std::string line;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    const auto fields = split_line(line, fmt.delimiter);
    if (fields.size() <= fmt.address_field)
      fail(line_no, "missing address field");
    const std::uint64_t address =
        parse_u64(fields[fmt.address_field], line_no);
    std::uint64_t bytes = fmt.item_bytes;
    if (fmt.has_size) {
      if (fields.size() <= fmt.size_field)
        fail(line_no, "missing size field");
      bytes = parse_u64(fields[fmt.size_field], line_no);
      if (bytes == 0) continue;  // zero-length records are no-ops
    }
    if (bytes - 1 > std::numeric_limits<std::uint64_t>::max() - address)
      fail(line_no, "record ends past 2^64");
    const std::uint64_t first_item = address / fmt.item_bytes;
    const std::uint64_t last_item = (address + bytes - 1) / fmt.item_bytes;
    // Item ids number frames x block_items, so a record whose frames could
    // take that universe to kInvalidItem is refused before a single item of
    // it is stored.
    const std::uint64_t frames =
        last_item / fmt.block_items - first_item / fmt.block_items + 1;
    if (frames > kInvalidItem / fmt.block_items - frame_of.size())
      fail(line_no, "record spans more items than an item id can number");
    for (std::uint64_t it = first_item; it <= last_item; ++it) {
      const auto ins = frame_of.emplace(
          it / fmt.block_items, static_cast<std::uint32_t>(frame_of.size()));
      w.trace.push(static_cast<ItemId>(
          std::uint64_t{ins.first->second} * fmt.block_items +
          it % fmt.block_items));
    }
  }
  if (w.trace.empty())
    throw std::runtime_error("address trace contained no records");

  w.map = make_uniform_blocks(frame_of.size() * fmt.block_items,
                              fmt.block_items);
  std::ostringstream nm;
  nm << "address-trace(items=" << w.map->num_items()
     << ",B=" << fmt.block_items << ",line=" << fmt.item_bytes << "B)";
  w.name = nm.str();
  return w;
}

Workload load_address_trace_file(const std::string& path,
                                 const AddressTraceFormat& fmt) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot open trace file: " + path);
  return load_address_trace(is, fmt);
}

}  // namespace gcaching::traces
