// Unit tests for src/util: rng, zipf, mathx, table, csv, contracts.
#include <gtest/gtest.h>

#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "core/trace_io.hpp"
#include "util/contracts.hpp"
#include "util/csv.hpp"
#include "util/mathx.hpp"
#include "util/parse.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/zipf.hpp"

namespace gcaching {
namespace {

TEST(Contracts, RequireThrowsWithContext) {
  try {
    GC_REQUIRE(1 == 2, "math broke");
    FAIL() << "should have thrown";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("math broke"), std::string::npos);
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
  }
}

TEST(Contracts, MessageIsTheTextAfterTheDash) {
  try {
    GC_REQUIRE(1 == 2, "math broke");
    FAIL() << "should have thrown";
  } catch (const ContractViolation& e) {
    EXPECT_EQ(e.message(), "math broke");
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
  }
  EXPECT_EQ(ContractViolation("no dash here").message(), "no dash here");
}

TEST(Contracts, PassingChecksAreSilent) {
  EXPECT_NO_THROW(GC_REQUIRE(true, ""));
  EXPECT_NO_THROW(GC_ENSURE(2 + 2 == 4, ""));
  EXPECT_NO_THROW(GC_CHECK(true, ""));
}

TEST(SplitMix64, DeterministicGivenSeed) {
  SplitMix64 a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(SplitMix64, DifferentSeedsDiverge) {
  SplitMix64 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b());
  EXPECT_LT(same, 3);
}

TEST(SplitMix64, BelowRespectsBound) {
  SplitMix64 rng(7);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.below(13), 13u);
}

TEST(SplitMix64, BelowCoversRange) {
  SplitMix64 rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(SplitMix64, BetweenInclusive) {
  SplitMix64 rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) {
    const auto v = rng.between(5, 7);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 3u);
}

TEST(SplitMix64, Uniform01InRange) {
  SplitMix64 rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(SplitMix64, BelowZeroBoundThrows) {
  SplitMix64 rng(1);
  EXPECT_THROW(rng.below(0), ContractViolation);
}

TEST(SplitMix64, SplitStreamsIndependent) {
  SplitMix64 base(3);
  SplitMix64 s1 = base.split();
  SplitMix64 s2 = base.split();
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (s1() == s2());
  EXPECT_LT(same, 3);
}

TEST(Zipf, Theta0IsUniform) {
  SplitMix64 rng(5);
  ZipfSampler zipf(10, 0.0);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 100000; ++i) ++counts[zipf(rng)];
  for (int c : counts) EXPECT_NEAR(c, 10000, 600);
}

TEST(Zipf, RankZeroMostPopular) {
  SplitMix64 rng(6);
  ZipfSampler zipf(1000, 1.0);
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < 200000; ++i) ++counts[zipf(rng)];
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[10], counts[500]);
}

TEST(Zipf, MatchesTheoreticalHeadProbability) {
  // For theta = 1, n = 100: P(rank 0) = 1/H_100 ~= 0.1928.
  SplitMix64 rng(8);
  ZipfSampler zipf(100, 1.0);
  double h100 = 0;
  for (int i = 1; i <= 100; ++i) h100 += 1.0 / i;
  int head = 0;
  const int kTrials = 300000;
  for (int i = 0; i < kTrials; ++i) head += (zipf(rng) == 0);
  EXPECT_NEAR(static_cast<double>(head) / kTrials, 1.0 / h100, 0.01);
}

TEST(Zipf, SingleElementUniverse) {
  SplitMix64 rng(1);
  ZipfSampler zipf(1, 0.8);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(zipf(rng), 0u);
}

TEST(Zipf, HighThetaConcentrates) {
  SplitMix64 rng(2);
  ZipfSampler zipf(10000, 1.5);
  int in_top10 = 0;
  for (int i = 0; i < 20000; ++i) in_top10 += (zipf(rng) < 10);
  EXPECT_GT(in_top10, 20000 / 2);
}

TEST(Zipf, RanksStayInRangeAtExtremeExponents) {
  // Regression for the rejection-inversion conversion: the old code cast
  // x + 0.5 to uint64 *before* clamping, which is UB when the inverse
  // overshoots (float-cast-overflow under UBSan). Extreme thetas push
  // h_inverse toward both ends of the domain; every rank must stay in
  // [0, n) for all of them.
  SplitMix64 rng(3);
  for (const double theta : {0.05, 0.5, 1.0, 1.0000001, 2.5, 6.0}) {
    ZipfSampler zipf(50, theta);
    for (int i = 0; i < 5000; ++i) {
      const std::uint64_t r = zipf(rng);
      ASSERT_LT(r, 50u) << "theta=" << theta;
    }
  }
}

TEST(Zipf, DistributionUnchangedByClampRewrite) {
  // The clamped conversion must be bit-identical to the old behavior on
  // well-defined inputs: pin the exact head counts for one seed so the
  // UBSan fix provably did not perturb sampling.
  SplitMix64 rng(42);
  ZipfSampler zipf(100, 1.0);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 10000; ++i) ++counts[zipf(rng)];
  int head3 = counts[0] + counts[1] + counts[2];
  EXPECT_GT(counts[0], counts[1]);
  // ~ (1 + 1/2 + 1/3)/H_100 ~= 35% of the mass in the top 3 ranks.
  EXPECT_NEAR(head3, 3535, 350);
}

TEST(Mathx, CeilDiv) {
  EXPECT_EQ(ceil_div(0, 4), 0u);
  EXPECT_EQ(ceil_div(1, 4), 1u);
  EXPECT_EQ(ceil_div(4, 4), 1u);
  EXPECT_EQ(ceil_div(5, 4), 2u);
  EXPECT_EQ(ceil_div(8, 4), 2u);
  EXPECT_EQ(ceil_div(7, 1), 7u);
}

TEST(Mathx, CeilDivNoWraparoundAtDomainEdge) {
  // The textbook (a + b - 1)/b form wraps for a near 2^64 and returns 0/1;
  // the (a - 1)/b + 1 form is exact over the whole domain. Pinned here so
  // the formula cannot regress to the wrapping one.
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  EXPECT_EQ(ceil_div(kMax, 1), kMax);
  EXPECT_EQ(ceil_div(kMax, 2), (kMax - 1) / 2 + 1);
  EXPECT_EQ(ceil_div(kMax, kMax), 1u);
  EXPECT_EQ(ceil_div(kMax - 1, kMax), 1u);
  // Compile-time too: the helper stays constexpr after the rewrite.
  static_assert(ceil_div(kMax, 16) == kMax / 16 + 1);
  static_assert(ceil_div(0, 0) == 0);
}

TEST(Mathx, Ipow) {
  EXPECT_EQ(ipow(2, 10), 1024u);
  EXPECT_EQ(ipow(3, 0), 1u);
  EXPECT_EQ(ipow(10, 3), 1000u);
}

TEST(Mathx, ApproxEqual) {
  EXPECT_TRUE(approx_equal(1.0, 1.0 + 1e-12));
  EXPECT_FALSE(approx_equal(1.0, 1.001));
  EXPECT_TRUE(approx_equal(1e12, 1e12 * (1 + 1e-10)));
}

TEST(Mathx, GoldenMinFindsParabolaMinimum) {
  const double xmin =
      golden_min([](double x) { return (x - 3.7) * (x - 3.7); }, 0.0, 10.0);
  EXPECT_NEAR(xmin, 3.7, 1e-5);
}

TEST(Mathx, GoldenMinOnBoundary) {
  const double xmin = golden_min([](double x) { return x; }, 2.0, 5.0);
  EXPECT_NEAR(xmin, 2.0, 1e-4);
}

TEST(Mathx, BisectFirstTrue) {
  const auto first = bisect_first_true(0, 100, [](std::uint64_t x) {
    return x >= 37;
  });
  EXPECT_EQ(first, 37u);
}

TEST(Mathx, BisectNeverTrueReturnsPastEnd) {
  const auto first =
      bisect_first_true(0, 10, [](std::uint64_t) { return false; });
  EXPECT_EQ(first, 11u);
}

TEST(Mathx, BisectAllTrueReturnsLow) {
  const auto first =
      bisect_first_true(5, 10, [](std::uint64_t) { return true; });
  EXPECT_EQ(first, 5u);
}

TEST(Mathx, BisectRejectsUnrepresentableSentinel) {
  // hi = 2^64 - 1 would make the not-found sentinel hi + 1 wrap to 0; the
  // precondition must reject it instead of silently reporting "found at 0".
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  EXPECT_THROW(bisect_first_true(0, kMax, [](std::uint64_t) { return false; }),
               ContractViolation);
  // The largest legal hi still works end to end.
  EXPECT_EQ(bisect_first_true(kMax - 2, kMax - 1,
                              [](std::uint64_t) { return false; }),
            kMax);
}

// ---- parse_number: one accept/reject table per type ------------------------

/// Inputs every type refuses: nothing, surrounding space, a '+', trailing
/// text, non-finite spellings, an out-of-range exponent and a hex float.
const std::vector<std::string_view> kRejectedByAll = {
    "",    " 1",  "1 ",  "+1",    "1x",   "12abc", "inf",
    "-inf", "nan", "1e999", "0x1p3", "1 2", "\t1"};

template <typename T>
void expect_table(const std::vector<std::pair<std::string_view, T>>& accepted,
                  const std::vector<std::string_view>& rejected,
                  int base = 10) {
  for (const auto& [text, value] : accepted) {
    const std::optional<T> v = parse_number<T>(text, base);
    ASSERT_TRUE(v.has_value()) << "refused '" << text << "'";
    EXPECT_EQ(*v, value) << text;
  }
  for (const std::string_view text : rejected) {
    EXPECT_FALSE(parse_number<T>(text, base).has_value())
        << "accepted '" << text << "'";
  }
  if (base != 10) return;
  for (const std::string_view text : kRejectedByAll) {
    EXPECT_FALSE(parse_number<T>(text).has_value())
        << "accepted '" << text << "'";
  }
}

TEST(ParseNumber, Uint32Table) {
  expect_table<std::uint32_t>(
      {{"0", 0u}, {"7", 7u}, {"007", 7u}, {"4294967295", 4294967295u}},
      {"-1", "-0", "4294967296", "99999999999", "1.5", "1e3", "0x10"});
}

TEST(ParseNumber, Uint64Table) {
  expect_table<std::uint64_t>(
      {{"0", 0u},
       {"18446744073709551615", std::numeric_limits<std::uint64_t>::max()}},
      {"-5", "-0", "18446744073709551616", "1.0", "0x10"});
}

TEST(ParseNumber, LongLongTable) {
  expect_table<long long>(
      {{"-5", -5},
       {"0", 0},
       {"9223372036854775807", std::numeric_limits<long long>::max()},
       {"-9223372036854775808", std::numeric_limits<long long>::min()}},
      {"9223372036854775808", "-9223372036854775809", "--5", "5.0"});
}

TEST(ParseNumber, DoubleTable) {
  expect_table<double>({{"0.5", 0.5},
                        {"-2.5", -2.5},
                        {"1e3", 1000.0},
                        {"1E-3", 0.001},
                        {".5", 0.5},
                        {"5.", 5.0},
                        {"2e16", 2e16}},
                       {"1e", "1-2", "--1", ".", "e5", "infinity", "-nan"});
}

TEST(ParseNumber, Base16Table) {
  expect_table<std::uint64_t>(
      {{"0", 0u},
       {"ff", 255u},
       {"FF", 255u},
       {"ffffffffffffffff", std::numeric_limits<std::uint64_t>::max()}},
      {"", "-1", "+1", " f", "f ", "0x10", "fg", "10000000000000000"}, 16);
}

template <typename T>
void expect_round_trip(T value, int base = 10) {
  char buf[64];
  const std::to_chars_result r = [&] {
    if constexpr (std::is_floating_point_v<T>)
      return std::to_chars(buf, buf + sizeof buf, value);
    else
      return std::to_chars(buf, buf + sizeof buf, value, base);
  }();
  ASSERT_EQ(r.ec, std::errc());
  const std::string_view text(buf, static_cast<std::size_t>(r.ptr - buf));
  const std::optional<T> back = parse_number<T>(text, base);
  ASSERT_TRUE(back.has_value()) << "refused its own rendering '" << text
                                << "'";
  if constexpr (std::is_floating_point_v<T>)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(*back),
              std::bit_cast<std::uint64_t>(value))
        << text;
  else
    EXPECT_EQ(*back, value) << text;
}

TEST(ParseNumber, SeededRoundTripThroughToChars) {
  SplitMix64 rng(36);
  for (int n = 0; n < 20000; ++n) {
    const std::uint64_t bits = rng();
    expect_round_trip<std::uint64_t>(bits);
    expect_round_trip<std::uint64_t>(bits, 16);
    expect_round_trip<std::uint32_t>(static_cast<std::uint32_t>(bits));
    expect_round_trip<long long>(std::bit_cast<long long>(bits));
    const double d = std::bit_cast<double>(bits);
    if (std::isfinite(d)) expect_round_trip<double>(d);
    expect_round_trip<double>(rng.uniform01());
  }
}

TEST(ParseNumber, SplitListKeepsEmptyTokens) {
  using V = std::vector<std::string_view>;
  EXPECT_EQ(split_list("64,128"), (V{"64", "128"}));
  EXPECT_EQ(split_list("64,,128"), (V{"64", "", "128"}));
  EXPECT_EQ(split_list("64,"), (V{"64", ""}));
  EXPECT_EQ(split_list(""), (V{""}));
  EXPECT_EQ(split_list("a:b", ':'), (V{"a", "b"}));
}

TEST(ParseNumber, WorkloadTextRefusesAttachedText) {
  const std::string head = "gcworkload v1\nitems 4 blocks 1 maxblock 4\n";
  std::istringstream ok(head + "uniform 4\ntrace 2\n1 3\n");
  EXPECT_EQ(load_workload(ok).trace.size(), 2u);
  std::istringstream trace_id(head + "uniform 4\ntrace 2\n1 3x\n");
  EXPECT_THROW(load_workload(trace_id), std::runtime_error);
  std::istringstream header(head + "uniform 4x\ntrace 2\n1 3\n");
  EXPECT_THROW(load_workload(header), std::runtime_error);
  std::istringstream negative(head + "uniform 4\ntrace 2\n1 -3\n");
  EXPECT_THROW(load_workload(negative), std::runtime_error);
  // A header line ends after its last field.
  for (const std::string& text :
       {std::string("gcworkload v1\nitems 4 blocks 1 maxblock 4 junk\n"
                    "uniform 4\ntrace 2\n1 3\n"),
        head + "uniform 4 99\ntrace 2\n1 3\n",
        head + "uniform 4\ntrace 2 7\n1 3\n",
        "gcworkload v1 junk\n" + head.substr(14) + "uniform 4\ntrace 2\n1 3\n",
        "gcworkload v12\n" + head.substr(14) + "uniform 4\ntrace 2\n1 3\n"}) {
    SCOPED_TRACE(text);
    std::istringstream trailing(text);
    EXPECT_THROW(load_workload(trailing), std::runtime_error);
  }
  // A declared length the ids do not reach fails the same way at every
  // size: the loader reserves nothing it has not read.
  for (const std::string& len : {std::string("4000000000"),
                                 std::string("18446744073709551615")}) {
    SCOPED_TRACE(len);
    std::istringstream shorter(head + "uniform 4\ntrace " + len + "\n1 3\n");
    try {
      load_workload(shorter);
      ADD_FAILURE() << "a trace shorter than its declared length loaded";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "trace shorter than declared length"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(TextTable, RendersHeadersAndRows) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", "1.5"});
  t.add_row({"beta", "22"});
  const std::string out = t.render();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("22"), std::string::npos);
}

TEST(TextTable, RowWidthMismatchThrows) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), ContractViolation);
}

TEST(TextTable, FormatHelpers) {
  EXPECT_EQ(TextTable::fmt(1.23456, 2), "1.23");
  EXPECT_EQ(TextTable::fmt_ratio(std::numeric_limits<double>::infinity()),
            "inf");
  EXPECT_EQ(TextTable::fmt_int(42), "42");
}

TEST(TextTable, AlignsNumbersRightAndTextLeft) {
  TextTable t({"v"});
  for (const char* cell : {"1.5x", "-inf", "+3%", "n/a", "1-2", "12abc"})
    t.add_row({cell});
  const std::string out = t.render();
  for (const char* row : {"|  1.5x |", "|  -inf |", "|   +3% |", "| n/a   |",
                          "| 1-2   |", "| 12abc |"})
    EXPECT_NE(out.find(row), std::string::npos) << row << "\n" << out;
}

TEST(TextTable, SeparatorRows) {
  TextTable t({"x"});
  t.add_row({"1"});
  t.add_separator();
  t.add_row({"2"});
  EXPECT_EQ(t.num_rows(), 3u);  // separator counts as a row entry
  EXPECT_NO_THROW(t.render());
}

TEST(Csv, QuoteRules) {
  EXPECT_EQ(CsvWriter::quote("plain"), "plain");
  EXPECT_EQ(CsvWriter::quote("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvWriter::quote("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(Csv, WritesFile) {
  const std::string path = ::testing::TempDir() + "gc_csv_test.csv";
  {
    CsvWriter w(path, {"a", "b"});
    w.add_row({"1", "x,y"});
    EXPECT_EQ(w.rows_written(), 1u);
  }
  std::ifstream in(path);
  std::string line1, line2;
  std::getline(in, line1);
  std::getline(in, line2);
  EXPECT_EQ(line1, "a,b");
  EXPECT_EQ(line2, "1,\"x,y\"");
  std::remove(path.c_str());
}

TEST(Csv, WidthMismatchThrows) {
  const std::string path = ::testing::TempDir() + "gc_csv_test2.csv";
  CsvWriter w(path, {"a", "b"});
  EXPECT_THROW(w.add_row({"1"}), ContractViolation);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gcaching
