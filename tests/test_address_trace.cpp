// Tests for the address-trace importer and the randomized-paging baseline
// bounds.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>

#include "bounds/randomized.hpp"
#include "core/simulator.hpp"
#include "policies/factory.hpp"
#include "traces/address_trace.hpp"

namespace gcaching::traces {
namespace {

AddressTraceFormat line64_row8() {
  AddressTraceFormat fmt;
  fmt.item_bytes = 64;
  fmt.block_items = 8;  // 512 B "rows"
  return fmt;
}

TEST(AddressTrace, SingleRecordOneItem) {
  std::istringstream is("0x1000 64\n");
  const auto w = load_address_trace(is, line64_row8());
  ASSERT_EQ(w.trace.size(), 1u);
  EXPECT_EQ(w.map->max_block_size(), 8u);
}

TEST(AddressTrace, MultiLineRecordTouchesConsecutiveItems) {
  // 256 bytes starting at 0x1000 = 4 lines of 64 B.
  std::istringstream is("0x1000 256\n");
  const auto w = load_address_trace(is, line64_row8());
  ASSERT_EQ(w.trace.size(), 4u);
  for (std::size_t p = 1; p < 4; ++p)
    EXPECT_EQ(w.trace[p], w.trace[p - 1] + 1);  // dense & adjacent
}

TEST(AddressTrace, StraddlingRecordSpansItems) {
  // 64 bytes starting at 0x1020 straddles two 64 B lines.
  std::istringstream is("0x1020 64\n");
  const auto w = load_address_trace(is, line64_row8());
  EXPECT_EQ(w.trace.size(), 2u);
}

TEST(AddressTrace, IntraBlockAdjacencyPreserved) {
  // Two addresses in the same 512 B row end up in the same block; a far
  // address lands in a different one.
  std::istringstream is(
      "0x0000 64\n"
      "0x0040 64\n"
      "0xff000 64\n");
  const auto w = load_address_trace(is, line64_row8());
  ASSERT_EQ(w.trace.size(), 3u);
  EXPECT_EQ(w.map->block_of(w.trace[0]), w.map->block_of(w.trace[1]));
  EXPECT_NE(w.map->block_of(w.trace[0]), w.map->block_of(w.trace[2]));
}

TEST(AddressTrace, SparseAddressesRemapDense) {
  std::istringstream is(
      "0xdeadbeef000 64\n"
      "0x00000001000 64\n"
      "0xdeadbeef000 64\n");
  const auto w = load_address_trace(is, line64_row8());
  EXPECT_EQ(w.trace[0], w.trace[2]);        // same address, same item
  EXPECT_LT(w.map->num_items(), 100u);      // dense, not address-sized
  EXPECT_EQ(w.distinct_blocks(), 2u);
}

TEST(AddressTrace, CsvFormatWithSkippedFields) {
  AddressTraceFormat fmt = line64_row8();
  fmt.delimiter = ',';
  fmt.address_field = 3;
  fmt.size_field = 4;
  std::istringstream is(
      "128166372003061629,hm,0,0x2000,128\n"
      "128166372016382155,hm,0,0x2040,64\n");
  const auto w = load_address_trace(is, fmt);
  EXPECT_EQ(w.trace.size(), 3u);  // 2 lines + 1 line
}

TEST(AddressTrace, NoSizeColumnMode) {
  AddressTraceFormat fmt = line64_row8();
  fmt.has_size = false;
  std::istringstream is("4096\n4160\n");
  const auto w = load_address_trace(is, fmt);
  EXPECT_EQ(w.trace.size(), 2u);
}

TEST(AddressTrace, CommentsAndBlanksSkipped) {
  std::istringstream is("# header\n\n0x1000 64\n");
  EXPECT_EQ(load_address_trace(is, line64_row8()).trace.size(), 1u);
}

TEST(AddressTrace, MalformedRecordFailsLoudly) {
  std::istringstream is("not-a-number 64\n");
  EXPECT_THROW(load_address_trace(is, line64_row8()), std::runtime_error);
  std::istringstream empty("# only comments\n");
  EXPECT_THROW(load_address_trace(empty, line64_row8()),
               std::runtime_error);
}

TEST(AddressTrace, RecordPastTheAddressSpaceFailsLoudly) {
  // 0xfffffffffffffff0 + 64 passes 2^64; the wrapped end used to drop the
  // record without a word.
  AddressTraceFormat fmt = line64_row8();
  fmt.has_size = false;
  std::istringstream wraps("0\n0xfffffffffffffff0\n64\n");
  EXPECT_THROW(load_address_trace(wraps, fmt), std::runtime_error);
  std::istringstream huge("0x1000 0xffffffffffffffff\n");
  EXPECT_THROW(load_address_trace(huge, line64_row8()), std::runtime_error);
  std::istringstream last("0xffffffffffffffc0 64\n");
  EXPECT_EQ(load_address_trace(last, line64_row8()).trace.size(), 1u);
  // 0 .. 2^64-2 does not wrap, but its 2^58 items have no item ids: the
  // record is refused by its size, before any of its items is stored.
  std::istringstream wide("0 64\n0 0xffffffffffffffff\n");
  try {
    load_address_trace(wide, line64_row8());
    ADD_FAILURE() << "accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
}

TEST(AddressTrace, SignedOrSuffixedAddressFailsLoudly) {
  for (const char* address : {"-5", "+7", "12abc"}) {
    SCOPED_TRACE(address);
    std::istringstream is("0 64\n" + std::string(address) + " 64\n");
    try {
      load_address_trace(is, line64_row8());
      ADD_FAILURE() << "accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
          << e.what();
    }
  }
}

TEST(AddressTrace, ImportedWorkloadSimulatesCleanly) {
  std::ostringstream gen;
  for (int row = 0; row < 32; ++row)
    for (int rep = 0; rep < 4; ++rep)
      gen << (0x10000 + row * 512) << " 512\n";
  std::istringstream is(gen.str());
  const auto w = load_address_trace(is, line64_row8());
  auto policy = make_policy("iblp", 64);
  const SimStats s = simulate(w, *policy, 64);
  EXPECT_EQ(s.accesses, w.trace.size());
  EXPECT_GT(s.spatial_hits, 0u);  // row-sized records have spatial locality
}

}  // namespace
}  // namespace gcaching::traces

namespace gcaching::bounds {
namespace {

TEST(RandomizedBounds, HarmonicValues) {
  EXPECT_DOUBLE_EQ(harmonic(1), 1.0);
  EXPECT_DOUBLE_EQ(harmonic(2), 1.5);
  EXPECT_NEAR(harmonic(100), 5.187377, 1e-5);
  // Euler-Maclaurin branch agrees with the exact sum at the threshold.
  EXPECT_NEAR(harmonic(2e6), std::log(2e6) + 0.5772156649, 1e-6);
}

TEST(RandomizedBounds, MarkingSandwich) {
  for (double k : {8.0, 64.0, 1024.0}) {
    EXPECT_LT(randomized_paging_lower(k), randomized_marking_upper(k));
    EXPECT_DOUBLE_EQ(randomized_marking_upper(k),
                     2 * randomized_paging_lower(k));
  }
}

TEST(RandomizedBounds, GranularityPenaltyDwarfsLogK) {
  // Section 6.1's point: for realistic B and k, the B-factor loss of
  // granularity-oblivious marking exceeds randomization's entire H_k
  // advantage.
  EXPECT_GT(oblivious_marking_gc_lower(64),
            randomized_marking_upper(1 << 20));
}

}  // namespace
}  // namespace gcaching::bounds
