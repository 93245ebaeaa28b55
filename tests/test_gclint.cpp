// Unit tests for the gclint auditor (tools/gclint). Every rule is exercised
// twice: once on a seeded violation (the rule must fire, on the right line,
// with the right rule id) and once on a compliant variant (the rule must stay
// quiet). The fixtures are in-memory SourceFiles, so the tests cover the
// library exactly as the CLI drives it, with no filesystem setup.
//
// The fixture code below lives inside raw string literals; gclint v2 matches
// rules on lexed tokens and a string literal is a single token whose content
// is never token-matched, which is also why this file itself passes the
// repo-wide gclint_repo check.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "gclint.hpp"
#include "sarif.hpp"

namespace {

using gclint::Finding;
using gclint::SourceFile;

std::vector<Finding> findings_for_rule(const std::vector<Finding>& all,
                                       const std::string& rule) {
  std::vector<Finding> out;
  for (const Finding& f : all)
    if (f.rule == rule) out.push_back(f);
  return out;
}

// ---- Shared compliant fixtures ---------------------------------------------

const char* kEngineOk = R"cpp(
#include "util/contracts.hpp"
namespace g {
inline void setup(int n) { GC_REQUIRE(n >= 0, "per-run setup is cold"); }
GC_HOT_REGION_BEGIN(fast_engine_per_access)
inline void fast_step(int x) {
  GC_HOT_REQUIRE(x >= 0, "");
  GC_HOT_CHECK(x < 100, "");
}
GC_HOT_REGION_END(fast_engine_per_access)
}
)cpp";

const char* kPolicyOk = R"cpp(
#include "core/policy.hpp"
namespace g {
class ItemLru {
 public:
  // GCLINT-TRAIT-CHECKED-BY: record_requested_hit
  static constexpr bool kRequestedLoadsOnly = true;
};
}
)cpp";

const char* kCheckerOk = R"cpp(
#include "util/contracts.hpp"
namespace g {
inline void record_requested_hit(int x) {
  GC_HOT_REQUIRE(x >= 0, "enforces kRequestedLoadsOnly");
}
}
)cpp";

const char* kFactoryOk = R"cpp(
#include "policies/factory.hpp"
namespace g {
PolicyPtr make_policy(const std::string& spec) {
  if (spec == "item-lru") return mk<ItemLru>();
  if (spec == "block-lru") return mk<BlockLru>();
  throw BadSpec();
}
SimStats simulate_fast_spec(const std::string& spec) {
  if (spec == "item-lru") return run<ItemLru>();
  if (spec == "block-lru") return run<BlockLru>();
  throw BadSpec();
}
SimStats simulate_column_spec(const std::string& spec) {
  if (spec == "item-lru") return col<ItemLru>();
  if (spec == "block-lru") return col<BlockLru>();
  throw BadSpec();
}
std::vector<std::string> known_policy_names() {
  return {"item-lru", "block-lru"};
}
}
)cpp";

const char* kDiffTestOk = R"cpp(
#include "policies/factory.hpp"
void covers_every_spec() { auto specs = known_policy_names(); }
)cpp";

std::vector<SourceFile> clean_tree() {
  return {{"src/core/simulator.hpp", kEngineOk},
          {"src/core/cache_contents.hpp", kCheckerOk},
          {"src/policies/item_lru.hpp", kPolicyOk},
          {"src/policies/factory.cpp", kFactoryOk},
          {"tests/test_fast_sim.cpp", kDiffTestOk}};
}

TEST(GclintClean, CompliantTreeHasNoFindings) {
  const auto findings = gclint::lint(clean_tree());
  EXPECT_TRUE(findings.empty())
      << (findings.empty() ? "" : gclint::format(findings.front()));
}

// ---- hot-region rules -------------------------------------------------------

TEST(GclintHotRegion, ColdContractInsideRegionIsFlagged) {
  const std::vector<SourceFile> files = {{"src/core/engine.hpp", R"cpp(
GC_HOT_REGION_BEGIN(per_access)
inline void step(int x) {
  GC_CHECK(x >= 0, "cold tier on the hot path");
}
GC_HOT_REGION_END(per_access)
)cpp"}};
  const auto hits =
      findings_for_rule(gclint::lint(files), "hot-region-cold-contract");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].path, "src/core/engine.hpp");
  EXPECT_EQ(hits[0].line, 4u);  // the GC_CHECK line (1-based, leading \n)
  EXPECT_NE(hits[0].message.find("per_access"), std::string::npos);
}

TEST(GclintHotRegion, AllowAnnotationSuppressesTheFinding) {
  const std::vector<SourceFile> files = {{"src/core/engine.hpp", R"cpp(
GC_HOT_REGION_BEGIN(per_access)
inline void step(int x) {
  // GCLINT-ALLOW(hot-region-cold-contract): measured, fires once per run
  GC_CHECK(x >= 0, "");
}
GC_HOT_REGION_END(per_access)
)cpp"}};
  EXPECT_TRUE(gclint::lint(files).empty());
}

TEST(GclintHotRegion, BalanceViolationsAreFlagged) {
  const std::vector<SourceFile> files = {
      {"src/a.hpp", "GC_HOT_REGION_END(orphan)\n"},
      {"src/b.hpp",
       "GC_HOT_REGION_BEGIN(outer)\nGC_HOT_REGION_BEGIN(inner)\n"
       "GC_HOT_REGION_END(inner)\n"},
      {"src/c.hpp",
       "GC_HOT_REGION_BEGIN(open)\nGC_HOT_REGION_END(other)\n"}};
  const auto hits =
      findings_for_rule(gclint::lint(files), "hot-region-balance");
  // a: END without BEGIN; b: nesting + (outer still open at EOF after the
  // inner END closed it — exactly one nesting finding); c: label mismatch.
  ASSERT_GE(hits.size(), 3u);
  EXPECT_EQ(hits[0].path, "src/a.hpp");
  EXPECT_NE(hits[0].message.find("without a matching BEGIN"),
            std::string::npos);
  EXPECT_EQ(hits[1].path, "src/b.hpp");
  EXPECT_NE(hits[1].message.find("must not nest"), std::string::npos);
  EXPECT_EQ(hits.back().path, "src/c.hpp");
  EXPECT_NE(hits.back().message.find("does not match"), std::string::npos);
}

TEST(GclintHotRegion, UnclosedRegionIsFlaggedAtItsBeginLine) {
  const std::vector<SourceFile> files = {
      {"src/a.hpp", "int x;\nGC_HOT_REGION_BEGIN(leaky)\nint y;\n"}};
  const auto hits =
      findings_for_rule(gclint::lint(files), "hot-region-balance");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].line, 2u);
  EXPECT_NE(hits[0].message.find("never closed"), std::string::npos);
}

TEST(GclintHotRegion, RawObsUseInsideRegionIsFlagged) {
  const std::vector<SourceFile> files = {{"src/core/engine.hpp", R"cpp(
GC_HOT_REGION_BEGIN(per_access)
inline void step(int x) {
  obs::current_timeline()->record(0, x);
  gcaching::obs::metrics()->add("step", 1);
}
GC_HOT_REGION_END(per_access)
)cpp"}};
  const auto hits =
      findings_for_rule(gclint::lint(files), "hot-region-raw-obs");
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].line, 4u);  // the unqualified obs:: call
  EXPECT_EQ(hits[1].line, 5u);  // the fully qualified one
  EXPECT_NE(hits[0].message.find("GC_OBS_"), std::string::npos);
}

TEST(GclintHotRegion, ObsMacrosAndOutsideUseAreLegal) {
  // GC_OBS_* entry points inside the region are the sanctioned form; raw
  // obs:: is fine outside any region; identifiers merely containing "obs"
  // (jobs::, obs_tl) must not trip the token match.
  const std::vector<SourceFile> files = {{"src/core/engine.hpp", R"cpp(
obs::StatsTimeline timeline(64);
GC_HOT_REGION_BEGIN(per_access)
inline void step(int x) {
  GC_OBS_TIMELINE(obs_tl);
  GC_OBS_TICK(obs_tl, 0, live_stats());
  jobs::enqueue(x);
}
GC_HOT_REGION_END(per_access)
)cpp"}};
  EXPECT_TRUE(
      findings_for_rule(gclint::lint(files), "hot-region-raw-obs").empty());
}

TEST(GclintHotRegion, AllowAnnotationSuppressesRawObs) {
  const std::vector<SourceFile> files = {{"src/core/engine.hpp", R"cpp(
GC_HOT_REGION_BEGIN(per_access)
// GCLINT-ALLOW(hot-region-raw-obs): amortized, fires once per window
inline void flush() { obs::current_timeline()->record(0, {}); }
GC_HOT_REGION_END(per_access)
)cpp"}};
  EXPECT_TRUE(
      findings_for_rule(gclint::lint(files), "hot-region-raw-obs").empty());
}

TEST(GclintHotRegion, RawLockInsideRegionIsFlagged) {
  const std::vector<SourceFile> files = {{"src/core/engine.hpp", R"cpp(
std::mutex cold_setup_mu;
GC_HOT_REGION_BEGIN(per_access)
inline void step(Shard& shard) {
  std::lock_guard<std::mutex> guard(shard.mu);
  shard.apply();
}
GC_HOT_REGION_END(per_access)
)cpp"}};
  const auto hits =
      findings_for_rule(gclint::lint(files), "hot-region-raw-lock");
  // Line 2 is outside any region (cold-path locking is fine); line 5 fires
  // once even though it names two banned tokens.
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].line, 5u);
  EXPECT_NE(hits[0].message.find("shard_lock.hpp"), std::string::npos);
}

TEST(GclintHotRegion, ShardLockHomeAndHelpersAreLegal) {
  // shard_lock.hpp is the sanctioned home; call sites using the ShardGuard
  // helpers (or identifiers merely containing "mutex") must not trip.
  const std::vector<SourceFile> files = {
      {"src/gcached/shard_lock.hpp", R"cpp(
GC_HOT_REGION_BEGIN(shard_lock_acquire)
class ShardLock { std::mutex mu_; };
GC_HOT_REGION_END(shard_lock_acquire)
)cpp"},
      {"src/gcached/sharded_cache.hpp", R"cpp(
GC_HOT_REGION_BEGIN(gcached_access)
inline void access(Shard& shard, ClientContext& ctx) {
  ShardGuard guard(shard.lock, ctx);
  int mutex_free_count = 0;
  (void)mutex_free_count;
}
GC_HOT_REGION_END(gcached_access)
)cpp"}};
  EXPECT_TRUE(
      findings_for_rule(gclint::lint(files), "hot-region-raw-lock").empty());
}

TEST(GclintHotRegion, AllowAnnotationSuppressesRawLock) {
  const std::vector<SourceFile> files = {{"src/core/engine.hpp", R"cpp(
GC_HOT_REGION_BEGIN(per_access)
// GCLINT-ALLOW(hot-region-raw-lock): startup barrier, not per-access
inline void start(std::condition_variable& cv) { cv.notify_all(); }
GC_HOT_REGION_END(per_access)
)cpp"}};
  EXPECT_TRUE(
      findings_for_rule(gclint::lint(files), "hot-region-raw-lock").empty());
}

TEST(GclintHotRegion, RawClockInsideRegionIsFlagged) {
  const std::vector<SourceFile> files = {{"src/core/engine.hpp", R"cpp(
inline long cold_stamp() { return std::chrono::steady_clock::now().count(); }
GC_HOT_REGION_BEGIN(per_access)
inline void step(Shard& shard) {
  const auto t0 = std::chrono::steady_clock::now();
  shard.apply();
  shard.ns += (std::chrono::steady_clock::now() - t0).count();
}
GC_HOT_REGION_END(per_access)
)cpp"}};
  const auto hits =
      findings_for_rule(gclint::lint(files), "hot-region-raw-clock");
  // Line 2 is outside any region (cold-path timing is fine); lines 5 and 7
  // fire once each.
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].line, 5u);
  EXPECT_EQ(hits[1].line, 7u);
  EXPECT_NE(hits[0].message.find("monitoring layer"), std::string::npos);
}

TEST(GclintHotRegion, RdtscVariantsAreFlagged) {
  const std::vector<SourceFile> files = {{"src/core/engine.hpp", R"cpp(
GC_HOT_REGION_BEGIN(per_access)
inline unsigned long stamp() { return __rdtsc(); }
inline long posix_stamp(timespec* ts) { return clock_gettime(0, ts); }
GC_HOT_REGION_END(per_access)
)cpp"}};
  const auto hits =
      findings_for_rule(gclint::lint(files), "hot-region-raw-clock");
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].line, 3u);
  EXPECT_EQ(hits[1].line, 4u);
}

TEST(GclintHotRegion, ClockHomesAreExempt) {
  // gcmon (whose job is timestamping) and shard_lock.hpp (the fill gate's
  // wait measurement) are the sanctioned homes for clock reads.
  const std::vector<SourceFile> files = {
      {"src/obs/gcmon.cpp", R"cpp(
GC_HOT_REGION_BEGIN(harvest)
inline long stamp() { return std::chrono::steady_clock::now().count(); }
GC_HOT_REGION_END(harvest)
)cpp"},
      {"src/gcached/shard_lock.hpp", R"cpp(
GC_HOT_REGION_BEGIN(fill_gate)
inline long waited() { return std::chrono::steady_clock::now().count(); }
GC_HOT_REGION_END(fill_gate)
)cpp"}};
  EXPECT_TRUE(
      findings_for_rule(gclint::lint(files), "hot-region-raw-clock").empty());
}

TEST(GclintHotRegion, AllowAnnotationSuppressesRawClock) {
  const std::vector<SourceFile> files = {{"src/core/engine.hpp", R"cpp(
GC_HOT_REGION_BEGIN(per_access)
// GCLINT-ALLOW(hot-region-raw-clock): one-time warmup stamp, not per-access
inline void warmup(Shard& s) { s.t0 = std::chrono::steady_clock::now(); }
GC_HOT_REGION_END(per_access)
)cpp"}};
  EXPECT_TRUE(
      findings_for_rule(gclint::lint(files), "hot-region-raw-clock").empty());
}

TEST(GclintHotRegion, HotTierContractsAreLegalInside) {
  const std::vector<SourceFile> files = {{"src/core/engine.hpp", R"cpp(
GC_HOT_REGION_BEGIN(per_access)
inline void step(int x) { GC_HOT_REQUIRE(x >= 0, ""); }
GC_HOT_REGION_END(per_access)
inline void setup(int n) { GC_REQUIRE(n > 0, "outside: fine"); }
)cpp"}};
  EXPECT_TRUE(gclint::lint(files).empty());
}

// ---- rng-discipline / no-cout ----------------------------------------------

TEST(GclintHygiene, RngOutsideRngHeaderIsFlagged) {
  const std::vector<SourceFile> files = {
      {"src/traces/gen.cpp", "std::mt19937 gen(42);\nint r = rand();\n"}};
  const auto hits =
      findings_for_rule(gclint::lint(files), "rng-discipline");
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].line, 1u);
  EXPECT_NE(hits[0].message.find("mt19937"), std::string::npos);
  EXPECT_EQ(hits[1].line, 2u);
}

TEST(GclintHygiene, RngHomeAndTestsAreExempt) {
  const std::vector<SourceFile> files = {
      {"src/util/rng.hpp", "std::random_device rd;\n"},
      {"tests/test_x.cpp", "std::mt19937 gen(1);\n"},
      {"tools/gcsim/main.cpp", "int r = rand();\n"}};
  EXPECT_TRUE(gclint::lint(files).empty());
}

TEST(GclintHygiene, TerminalOutputInLibraryIsFlagged) {
  const std::vector<SourceFile> files = {
      {"src/sim/runner.cpp", "std::cout << cell;\nprintf(fmt, x);\n"},
      {"tools/gcsim/main.cpp", "std::cout << result;\n"}};
  const auto hits = findings_for_rule(gclint::lint(files), "no-cout");
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].path, "src/sim/runner.cpp");
  EXPECT_EQ(hits[0].line, 1u);
  EXPECT_EQ(hits[1].line, 2u);
}

TEST(GclintHygiene, FprintfIsNotPrintf) {
  // Token matching is identifier-exact: fprintf(stderr, ...) routed through a
  // diagnostics helper must not trip the printf check.
  const std::vector<SourceFile> files = {
      {"src/sim/runner.cpp", "fprintf(stderr, fmt);\nint sprandom = 1;\n"}};
  EXPECT_TRUE(gclint::lint(files).empty());
}

TEST(GclintHygiene, CommentsAndStringsNeverTrip) {
  const std::vector<SourceFile> files = {{"src/core/doc.hpp", R"cpp(
// Never call rand() here; std::cout is banned too.
/* GC_CHECK(false, "not real code") */
const char* msg = "std::mt19937 and printf( are just prose";
const char* raw = "GC_HOT_REGION_BEGIN(fake)";
)cpp"}};
  EXPECT_TRUE(gclint::lint(files).empty());
}

// ---- trait-audit ------------------------------------------------------------

TEST(GclintTraits, MissingCheckedByAnnotationIsFlagged) {
  auto files = clean_tree();
  files[2].content = R"cpp(
class ItemLru {
 public:
  static constexpr bool kRequestedLoadsOnly = true;
};
)cpp";
  const auto hits = findings_for_rule(gclint::lint(files), "trait-audit");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].path, "src/policies/item_lru.hpp");
  EXPECT_NE(hits[0].message.find("GCLINT-TRAIT-CHECKED-BY"),
            std::string::npos);
}

TEST(GclintTraits, CheckedByFunctionMustContainAContract) {
  auto files = clean_tree();
  files[2].content = R"cpp(
class ItemLru {
 public:
  // GCLINT-TRAIT-CHECKED-BY: nonexistent_function
  static constexpr bool kRequestedLoadsOnly = true;
};
)cpp";
  const auto hits = findings_for_rule(gclint::lint(files), "trait-audit");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_NE(hits[0].message.find("nonexistent_function"), std::string::npos);
  EXPECT_NE(hits[0].message.find("contract check"), std::string::npos);
}

TEST(GclintTraits, QualifiedCheckedByNamesResolve) {
  auto files = clean_tree();
  files[2].content = R"cpp(
class ItemLru {
 public:
  // GCLINT-TRAIT-CHECKED-BY: CacheContents::record_requested_hit
  static constexpr bool kRequestedLoadsOnly = true;
};
)cpp";
  EXPECT_TRUE(findings_for_rule(gclint::lint(files), "trait-audit").empty());
}

TEST(GclintTraits, UnregisteredPolicyClassIsFlagged) {
  auto files = clean_tree();
  files.push_back({"src/policies/item_ghost.hpp", R"cpp(
class ItemGhost {
 public:
  // GCLINT-TRAIT-CHECKED-BY: record_requested_hit
  static constexpr bool kRequestedLoadsOnly = true;
};
)cpp"});
  const auto hits = findings_for_rule(gclint::lint(files), "trait-audit");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_NE(hits[0].message.find("ItemGhost"), std::string::npos);
  EXPECT_NE(hits[0].message.find("not registered"), std::string::npos);
}

// ---- factory-registration ---------------------------------------------------

TEST(GclintFactory, SpecMissingFromOneTableIsFlagged) {
  auto files = clean_tree();
  // Drop block-lru from simulate_fast_spec only.
  std::string factory = files[3].content;
  const std::string fast_line =
      "  if (spec == \"block-lru\") return run<BlockLru>();\n";
  const auto pos = factory.find(fast_line);
  ASSERT_NE(pos, std::string::npos);
  factory.erase(pos, fast_line.size());
  files[3].content = factory;
  const auto hits =
      findings_for_rule(gclint::lint(files), "factory-registration");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].path, "src/policies/factory.cpp");
  EXPECT_NE(hits[0].message.find("block-lru"), std::string::npos);
  EXPECT_NE(hits[0].message.find("simulate_fast_spec"), std::string::npos);
}

TEST(GclintFactory, KnownNamesAndMakePolicyAreCrossChecked) {
  auto files = clean_tree();
  std::string factory = files[3].content;
  const std::string known = "\"block-lru\"";
  const auto pos = factory.rfind(known);
  ASSERT_NE(pos, std::string::npos);
  factory.replace(pos, known.size(), "\"block-mru\"");
  files[3].content = factory;
  const auto hits =
      findings_for_rule(gclint::lint(files), "factory-registration");
  // block-lru handled by make_policy but absent from known_policy_names, and
  // block-mru advertised but not constructible.
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_NE(hits[0].message.find("block-lru"), std::string::npos);
  EXPECT_NE(hits[0].message.find("known_policy_names"), std::string::npos);
  EXPECT_NE(hits[1].message.find("block-mru"), std::string::npos);
  EXPECT_NE(hits[1].message.find("make_policy"), std::string::npos);
}

TEST(GclintFactory, DifferentialTestMustEnumerateTheFactory) {
  auto files = clean_tree();
  files[4].content =
      "void stale() { run_spec(\"item-lru\"); run_spec(\"block-lru\"); }\n";
  const auto hits =
      findings_for_rule(gclint::lint(files), "factory-registration");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_NE(hits[0].message.find("known_policy_names"), std::string::npos);
}

TEST(GclintFactory, RestructuredFactoryFailsLoudly) {
  auto files = clean_tree();
  files[3].content = "PolicyPtr build(const char* spec);\n";
  const auto hits =
      findings_for_rule(gclint::lint(files), "factory-registration");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_NE(hits[0].message.find("anchors"), std::string::npos);
}

// ---- build-coverage ---------------------------------------------------------

TEST(GclintCoverage, MissingTranslationUnitIsFlagged) {
  const std::vector<SourceFile> files = {
      {"src/core/a.cpp", "int a;\n"},
      {"src/core/b.cpp", "int b;\n"},
      {"src/core/a.hpp", "extern int a;\n"},   // headers exempt
      {"tests/test_a.cpp", "int t;\n"}};       // tests exempt
  const std::string db =
      R"([{ "file": "/repo/src/core/a.cpp", "command": "g++ -c" }])";
  const auto hits = gclint::check_build_coverage(files, db);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].path, "src/core/b.cpp");
  EXPECT_EQ(hits[0].rule, "build-coverage");
}

TEST(GclintCoverage, FullDatabaseIsClean) {
  const std::vector<SourceFile> files = {{"src/core/a.cpp", "int a;\n"}};
  EXPECT_TRUE(
      gclint::check_build_coverage(files, R"(["/repo/src/core/a.cpp"])")
          .empty());
}

// ---- hot-region-blocking ----------------------------------------------------

TEST(GclintBlocking, SleepAndYieldInsideRegionAreFlagged) {
  const std::vector<SourceFile> files = {{"src/core/engine.hpp", R"cpp(
GC_HOT_REGION_BEGIN(per_access)
inline void step() {
  std::this_thread::sleep_for(std::chrono::nanoseconds(1));
  std::this_thread::yield();
}
GC_HOT_REGION_END(per_access)
)cpp"}};
  const auto hits =
      findings_for_rule(gclint::lint(files), "hot-region-blocking");
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].line, 4u);
  EXPECT_NE(hits[0].message.find("sleep_for"), std::string::npos);
  EXPECT_NE(hits[0].message.find("shard_lock.hpp"), std::string::npos);
  EXPECT_EQ(hits[1].line, 5u);
  EXPECT_NE(hits[1].message.find("yield"), std::string::npos);
}

TEST(GclintBlocking, AtomicWaitAndNotifyAreFlagged) {
  const std::vector<SourceFile> files = {{"src/gcached/runtime.hpp", R"cpp(
GC_HOT_REGION_BEGIN(gcached_access)
inline void park(std::atomic<int>& flag) {
  flag.wait(0);
  flag.notify_all();
}
GC_HOT_REGION_END(gcached_access)
)cpp"}};
  const auto hits =
      findings_for_rule(gclint::lint(files), "hot-region-blocking");
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_NE(hits[0].message.find("wait"), std::string::npos);
  EXPECT_NE(hits[1].message.find("notify_all"), std::string::npos);
}

TEST(GclintBlocking, ShardLockHomeBackoffIsExempt) {
  // The lock's yield-and-retry and the backend fill sleep ARE
  // shard_lock.hpp's job.
  const std::vector<SourceFile> files = {{"src/gcached/shard_lock.hpp", R"cpp(
GC_HOT_REGION_BEGIN(shard_lock_acquire)
inline void retry() {
  std::this_thread::sleep_for(std::chrono::nanoseconds(64));
  std::this_thread::yield();
}
GC_HOT_REGION_END(shard_lock_acquire)
)cpp"}};
  EXPECT_TRUE(
      findings_for_rule(gclint::lint(files), "hot-region-blocking").empty());
}

TEST(GclintBlocking, SleepOutsideAnyRegionIsNotBlockingFinding) {
  const std::vector<SourceFile> files = {{"src/sim/runner.hpp", R"cpp(
inline void settle() {
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
}
)cpp"}};
  EXPECT_TRUE(
      findings_for_rule(gclint::lint(files), "hot-region-blocking").empty());
}

// ---- lock-discipline --------------------------------------------------------

TEST(GclintLockDiscipline, SleepUnderShardGuardIsFlagged) {
  // A backend fill slept while the shard guard is live.
  const std::vector<SourceFile> files = {{"src/gcached/cache.hpp", R"cpp(
namespace g {
inline void access(Shard& shard, ClientContext& ctx) {
  ShardGuard guard(shard.lock, ctx);
  std::this_thread::sleep_for(std::chrono::nanoseconds(100));
}
}
)cpp"}};
  const auto hits = findings_for_rule(gclint::lint(files), "lock-discipline");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].line, 5u);
  EXPECT_NE(hits[0].message.find("blocking call 'sleep_for'"),
            std::string::npos);
  EXPECT_NE(hits[0].message.find("'guard' (line 4)"), std::string::npos);
}

TEST(GclintLockDiscipline, SecondGuardIsDeadlockRisk) {
  const std::vector<SourceFile> files = {{"src/gcached/cache.hpp", R"cpp(
inline void transfer(Shard& a, Shard& b,
                     ClientContext& ctx) {
  ShardGuard ga(a.lock, ctx);
  ShardGuard gb(b.lock, ctx);
}
)cpp"}};
  const auto hits = findings_for_rule(gclint::lint(files), "lock-discipline");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].line, 5u);
  EXPECT_NE(hits[0].message.find("deadlock risk"), std::string::npos);
  EXPECT_NE(hits[0].message.find("'ga'"), std::string::npos);
}

TEST(GclintLockDiscipline, AllocationAndGrowthUnderGuardAreFlagged) {
  const std::vector<SourceFile> files = {{"src/gcached/cache.hpp", R"cpp(
inline void fill(Shard& shard, ClientContext& ctx) {
  ShardGuard guard(shard.lock, ctx);
  shard.items.push_back(1);
  auto p = std::make_unique<int>(2);
}
)cpp"}};
  const auto hits = findings_for_rule(gclint::lint(files), "lock-discipline");
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].line, 4u);
  EXPECT_NE(hits[0].message.find("container growth 'push_back'"),
            std::string::npos);
  EXPECT_EQ(hits[1].line, 5u);
  EXPECT_NE(hits[1].message.find("allocation 'make_unique'"),
            std::string::npos);
}

TEST(GclintLockDiscipline, FileIoUnderGuardIsFlagged) {
  // sharded_cache.hpp's ShardHold wraps a ShardGuard and is tracked as one.
  const std::vector<SourceFile> files = {{"src/gcached/cache.hpp", R"cpp(
inline void dump(Shard& shard, ClientContext& ctx) {
  ShardHold hold(shard, ctx, mon, 0);
  std::ofstream out(shard.path);
}
)cpp"}};
  const auto hits = findings_for_rule(gclint::lint(files), "lock-discipline");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].line, 4u);
  EXPECT_NE(hits[0].message.find("file I/O 'ofstream'"), std::string::npos);
}

TEST(GclintLockDiscipline, GuardDiesAtItsClosingBrace) {
  // The per-shard-snapshot pattern of collect_stats(): each iteration's guard
  // dies at the loop's closing brace, so blocking work after the loop is
  // legal, and a free function named like a growth member is not growth.
  const std::vector<SourceFile> files = {{"src/gcached/cache.hpp", R"cpp(
inline void collect(Shards& shards, ClientContext& ctx) {
  for (auto& shard : shards) {
    ShardGuard guard(shard.lock, ctx);
    shard.apply();
    insert(1);
  }
  std::this_thread::sleep_for(std::chrono::nanoseconds(1));
}
)cpp"}};
  EXPECT_TRUE(findings_for_rule(gclint::lint(files), "lock-discipline").empty());
}

TEST(GclintLockDiscipline, LockHomeAndTestsAreExempt) {
  const char* kGuardThenSleep = R"cpp(
inline void acquire(Shard& shard, ClientContext& ctx) {
  ShardGuard guard(shard.lock, ctx);
  std::this_thread::sleep_for(std::chrono::nanoseconds(64));
}
)cpp";
  const std::vector<SourceFile> files = {
      {"src/gcached/shard_lock.hpp", kGuardThenSleep},
      {"tests/test_gcached.cpp", kGuardThenSleep}};
  EXPECT_TRUE(findings_for_rule(gclint::lint(files), "lock-discipline").empty());
}

// ---- hot-region-transitive --------------------------------------------------

TEST(GclintTransitive, AllocationInCalleeReachableFromRegionIsFlagged) {
  const std::vector<SourceFile> files = {{"src/core/engine.hpp", R"cpp(
namespace g {
GC_HOT_REGION_BEGIN(per_access)
inline void step(int x) { refill(x); }
GC_HOT_REGION_END(per_access)
inline void refill(int x) { int* p = new int[x]; }
}
)cpp"}};
  const auto hits =
      findings_for_rule(gclint::lint(files), "hot-region-transitive");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].line, 6u);
  EXPECT_NE(hits[0].message.find("allocation 'new'"), std::string::npos);
  EXPECT_NE(hits[0].message.find("'refill'"), std::string::npos);
  EXPECT_NE(hits[0].message.find("per_access"), std::string::npos);
}

TEST(GclintTransitive, FindingCarriesTheReachPathAcrossHops) {
  const std::vector<SourceFile> files = {{"src/core/engine.hpp", R"cpp(
GC_HOT_REGION_BEGIN(per_access)
inline void step(int x) { level1(x); }
GC_HOT_REGION_END(per_access)
inline void level1(int x) { level2(x); }
inline void level2(int x) { if (x < 0) throw BadAccess(); }
)cpp"}};
  const auto hits =
      findings_for_rule(gclint::lint(files), "hot-region-transitive");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].line, 6u);
  EXPECT_NE(hits[0].message.find("'throw'"), std::string::npos);
  EXPECT_NE(hits[0].message.find("level1 -> level2"), std::string::npos);
}

TEST(GclintTransitive, RawLockInCalleeIsFlagged) {
  const std::vector<SourceFile> files = {{"src/core/engine.hpp", R"cpp(
GC_HOT_REGION_BEGIN(per_access)
inline void step(int x) { locked_path(x); }
GC_HOT_REGION_END(per_access)
inline void locked_path(int x) {
  std::lock_guard<std::mutex> l(mu);
}
)cpp"}};
  const auto hits =
      findings_for_rule(gclint::lint(files), "hot-region-transitive");
  // lock_guard and mutex both sit on line 6; each primitive reports once.
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].line, 6u);
  EXPECT_NE(hits[0].message.find("lock_guard"), std::string::npos);
}

TEST(GclintTransitive, PureCalleesAndUnreachableImpurityAreClean) {
  // `refill` allocates but is only called from cold code; `scale` is reached
  // from the region but is pure — neither may fire.
  const std::vector<SourceFile> files = {{"src/core/engine.hpp", R"cpp(
GC_HOT_REGION_BEGIN(per_access)
inline int step(int x) { return scale(x); }
GC_HOT_REGION_END(per_access)
inline int scale(int x) { return x * 2; }
inline void cold_setup(int x) { refill(x); }
inline void refill(int x) { int* p = new int[x]; }
)cpp"}};
  EXPECT_TRUE(
      findings_for_rule(gclint::lint(files), "hot-region-transitive").empty());
}

TEST(GclintTransitive, AllowAtTheCalleeSiteSuppresses) {
  const std::vector<SourceFile> files = {{"src/core/engine.hpp", R"cpp(
GC_HOT_REGION_BEGIN(per_access)
inline void step(int x) { refill(x); }
GC_HOT_REGION_END(per_access)
inline void refill(int x) {
  // GCLINT-ALLOW(hot-region-transitive): amortized refill, once per window
  int* p = new int[x];
}
)cpp"}};
  EXPECT_TRUE(
      findings_for_rule(gclint::lint(files), "hot-region-transitive").empty());
}

// ---- layering ---------------------------------------------------------------

const char* kLayersSpec =
    "# bottom-up, same-line dirs share a tier\n"
    "util\n"
    "core obs\n"
    "sim\n";

std::vector<Finding> lint_layered(const std::vector<SourceFile>& files) {
  gclint::LintOptions options;
  options.layers_spec = kLayersSpec;
  return findings_for_rule(gclint::lint(files, options), "layering");
}

TEST(GclintLayering, BackEdgeIncludeIsFlagged) {
  // The planted fixture the issue requires: a lower tier reaching up.
  const std::vector<SourceFile> files = {
      {"src/util/helpers.hpp", "#include \"sim/runner.hpp\"\nint a;\n"},
      {"src/sim/runner.hpp", "int r;\n"}};
  const auto hits = lint_layered(files);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].path, "src/util/helpers.hpp");
  EXPECT_EQ(hits[0].line, 1u);
  EXPECT_NE(hits[0].message.find("back-edge"), std::string::npos);
  EXPECT_NE(hits[0].message.find("tier 0"), std::string::npos);
  EXPECT_NE(hits[0].message.find("tier 2"), std::string::npos);
}

TEST(GclintLayering, DownwardAndSameTierIncludesAreClean) {
  const std::vector<SourceFile> files = {
      {"src/sim/runner.hpp", "#include \"core/stats.hpp\"\n"},
      {"src/core/stats.hpp",
       "#include \"obs/registry.hpp\"\n#include \"util/csv.hpp\"\n"},
      {"src/obs/registry.hpp", "#include \"util/csv.hpp\"\n"},
      {"src/util/csv.hpp", "int c;\n"}};
  EXPECT_TRUE(lint_layered(files).empty());
}

TEST(GclintLayering, UndeclaredDirectoryIsFlagged) {
  const std::vector<SourceFile> files = {
      {"src/rogue/x.hpp", "int x;\n"},
      {"src/core/a.hpp", "#include \"rogue/x.hpp\"\n"}};
  const auto hits = lint_layered(files);
  // Once for the rogue file itself, once at the include that reaches it.
  ASSERT_EQ(hits.size(), 2u);
  for (const Finding& f : hits)
    EXPECT_NE(f.message.find("not declared in the layer DAG"),
              std::string::npos);
}

TEST(GclintLayering, IncludeCycleIsFlaggedOnce) {
  const std::vector<SourceFile> files = {
      {"src/core/a.hpp", "#include \"core/b.hpp\"\n"},
      {"src/core/b.hpp", "#include \"core/a.hpp\"\n"}};
  const auto hits = lint_layered(files);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_NE(hits[0].message.find("include cycle"), std::string::npos);
  EXPECT_NE(hits[0].message.find("src/core/a.hpp"), std::string::npos);
  EXPECT_NE(hits[0].message.find("src/core/b.hpp"), std::string::npos);
}

TEST(GclintLayering, RuleIsSkippedWithoutALayersSpec) {
  const std::vector<SourceFile> files = {
      {"src/util/helpers.hpp", "#include \"sim/runner.hpp\"\n"},
      {"src/sim/runner.hpp", "int r;\n"}};
  EXPECT_TRUE(findings_for_rule(gclint::lint(files), "layering").empty());
}

// ---- allow-hygiene / --list-allows ------------------------------------------

TEST(GclintAllowHygiene, EmptyReasonIsFlagged) {
  const std::vector<SourceFile> files = {
      {"src/core/a.hpp", "int x; // GCLINT-ALLOW(no-cout):\n"}};
  const auto hits = findings_for_rule(gclint::lint(files), "allow-hygiene");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].line, 1u);
  EXPECT_NE(hits[0].message.find("without a reason"), std::string::npos);
}

TEST(GclintAllowHygiene, UnknownRuleIsFlagged) {
  const std::vector<SourceFile> files = {
      {"src/core/a.hpp",
       "int x; // GCLINT-ALLOW(no-such-rule): because reasons\n"}};
  const auto hits = findings_for_rule(gclint::lint(files), "allow-hygiene");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_NE(hits[0].message.find("no-such-rule"), std::string::npos);
}

TEST(GclintAllowHygiene, AllowHygieneCannotSuppressItself) {
  const std::vector<SourceFile> files = {
      {"src/core/a.hpp", "int x; // GCLINT-ALLOW(allow-hygiene):\n"}};
  EXPECT_EQ(
      findings_for_rule(gclint::lint(files), "allow-hygiene").size(), 1u);
}

TEST(GclintAllowHygiene, CommaListSuppressesEveryNamedSuppressibleRule) {
  // One annotation, two rules firing on the same line — both suppressed.
  const std::vector<SourceFile> files = {{"src/core/engine.hpp", R"cpp(
GC_HOT_REGION_BEGIN(per_access)
inline void nap() {
  // GCLINT-ALLOW(hot-region-blocking, hot-region-raw-clock): calibration nap
  std::this_thread::sleep_until(std::chrono::steady_clock::now());
}
GC_HOT_REGION_END(per_access)
)cpp"}};
  EXPECT_TRUE(gclint::lint(files).empty());
}

TEST(GclintAllowHygiene, LockDisciplineCannotBeAllowed) {
  // The retired sharded_cache.hpp sanctioning pattern: since the MSHR fill
  // path proved blocking can always release the shard first, lock-discipline
  // became non-suppressible. The annotation still silences the (suppressible)
  // hot-region-blocking finding, but lock-discipline fires straight through
  // it and allow-hygiene flags the annotation as ineffective.
  const std::vector<SourceFile> files = {{"src/gcached/cache.hpp", R"cpp(
GC_HOT_REGION_BEGIN(gcached_access)
inline void access(Shard& shard, ClientContext& ctx) {
  ShardGuard guard(shard.lock, ctx);
  // GCLINT-ALLOW(lock-discipline, hot-region-blocking): simulated fill
  std::this_thread::sleep_for(std::chrono::nanoseconds(1));
}
GC_HOT_REGION_END(gcached_access)
)cpp"}};
  const auto findings = gclint::lint(files);
  EXPECT_TRUE(findings_for_rule(findings, "hot-region-blocking").empty());
  ASSERT_EQ(findings_for_rule(findings, "lock-discipline").size(), 1u);
  const auto hygiene = findings_for_rule(findings, "allow-hygiene");
  ASSERT_EQ(hygiene.size(), 1u);
  EXPECT_NE(hygiene[0].message.find("non-suppressible"), std::string::npos);
}

TEST(GclintAllowHygiene, AnnotationBridgesContiguousCommentLines) {
  const std::vector<SourceFile> files = {{"src/core/engine.hpp", R"cpp(
GC_HOT_REGION_BEGIN(per_access)
// GCLINT-ALLOW(hot-region-cold-contract): measured, fires once per run
// (the check guards a once-per-run rebuild, not the per-access path)
inline void step(int x) { GC_CHECK(x >= 0, ""); }
GC_HOT_REGION_END(per_access)
)cpp"}};
  EXPECT_TRUE(gclint::lint(files).empty());
}

TEST(GclintAllowHygiene, BlankLineBreaksTheSuppressionChain) {
  const std::vector<SourceFile> files = {{"src/core/engine.hpp", R"cpp(
GC_HOT_REGION_BEGIN(per_access)
// GCLINT-ALLOW(hot-region-cold-contract): stale annotation

inline void step(int x) { GC_CHECK(x >= 0, ""); }
GC_HOT_REGION_END(per_access)
)cpp"}};
  EXPECT_EQ(findings_for_rule(gclint::lint(files), "hot-region-cold-contract")
                .size(),
            1u);
}

TEST(GclintAllowHygiene, ListAllowsReportsEverySite) {
  const std::vector<SourceFile> files = {
      {"src/core/a.hpp",
       "// GCLINT-ALLOW(no-cout): tooling hook\n"
       "int x;\n"
       "// GCLINT-ALLOW(lock-discipline, hot-region-blocking): simulated "
       "fill\n"},
      {"src/core/b.hpp", "// GCLINT-ALLOW(rng-discipline):\n"}};
  const auto sites = gclint::list_allows(files);
  ASSERT_EQ(sites.size(), 3u);
  EXPECT_EQ(sites[0].path, "src/core/a.hpp");
  EXPECT_EQ(sites[0].line, 1u);
  ASSERT_EQ(sites[0].rules.size(), 1u);
  EXPECT_EQ(sites[0].rules[0], "no-cout");
  EXPECT_EQ(sites[0].reason, "tooling hook");
  EXPECT_EQ(sites[1].line, 3u);
  ASSERT_EQ(sites[1].rules.size(), 2u);
  EXPECT_EQ(sites[1].rules[0], "lock-discipline");
  EXPECT_EQ(sites[1].rules[1], "hot-region-blocking");
  EXPECT_EQ(sites[2].path, "src/core/b.hpp");
  EXPECT_TRUE(sites[2].reason.empty());
}

// ---- SARIF ------------------------------------------------------------------

TEST(GclintSarif, EmitsTheStableSarif21Shape) {
  const std::vector<Finding> findings = {
      {"src/core/x.hpp", 12, "no-cout", "terminal output"},
      {"src/gcached/y.hpp", 7, "lock-discipline", "said \"no\"\n"}};
  const std::string sarif = gclint::to_sarif(findings);
  EXPECT_NE(sarif.find("\"$schema\": "
                       "\"https://json.schemastore.org/sarif-2.1.0.json\""),
            std::string::npos);
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"name\": \"gclint\""), std::string::npos);
  // The driver advertises the full rule catalog.
  for (const gclint::RuleInfo& r : gclint::rule_catalog())
    EXPECT_NE(sarif.find("\"id\": \"" + r.id + "\""), std::string::npos);
  // Results carry ruleId, level, message, and a physical location anchored
  // to the repo-relative URI under SRCROOT.
  EXPECT_NE(sarif.find("\"ruleId\": \"no-cout\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\": \"lock-discipline\""), std::string::npos);
  EXPECT_NE(sarif.find("\"level\": \"error\""), std::string::npos);
  EXPECT_NE(sarif.find("\"uri\": \"src/core/x.hpp\""), std::string::npos);
  EXPECT_NE(sarif.find("\"uriBaseId\": \"SRCROOT\""), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\": 12"), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\": 7"), std::string::npos);
  // JSON escaping: the quote and newline in the message must be escaped.
  EXPECT_NE(sarif.find("said \\\"no\\\"\\n"), std::string::npos);
  EXPECT_EQ(sarif.find("said \"no\"\n"), std::string::npos);
}

TEST(GclintSarif, RuleIndexBackReferencesTheCatalog) {
  // ruleIndex must point at the catalog entry whose id matches the result's
  // ruleId (code scanning joins on it).
  const auto& catalog = gclint::rule_catalog();
  std::size_t expect_index = catalog.size();
  for (std::size_t i = 0; i < catalog.size(); ++i)
    if (catalog[i].id == "no-cout") expect_index = i;
  ASSERT_LT(expect_index, catalog.size());
  const std::string sarif =
      gclint::to_sarif({{"src/core/x.hpp", 1, "no-cout", "m"}});
  EXPECT_NE(
      sarif.find("\"ruleIndex\": " + std::to_string(expect_index)),
      std::string::npos);
}

TEST(GclintSarif, EmptyFindingsStillEmitAValidRun) {
  const std::string sarif = gclint::to_sarif({});
  EXPECT_NE(sarif.find("\"results\": ["), std::string::npos);
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_EQ(sarif.find("\"ruleId\""), std::string::npos);
}

// ---- rendering --------------------------------------------------------------

TEST(GclintFormat, CanonicalRendering) {
  const Finding f{"src/core/x.hpp", 12, "no-cout", "terminal output"};
  EXPECT_EQ(gclint::format(f), "src/core/x.hpp:12: [no-cout] terminal output");
}

}  // namespace
