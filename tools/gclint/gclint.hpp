// gclint — the repo-specific contract-and-trait auditor.
//
// The compiler and the sanitizers enforce the language; gclint enforces the
// *conventions* PRs 1–7 introduced and that nothing else machine-checks. v2
// runs every rule over a real token stream (lexer.hpp) and a lightweight
// semantic model (semantic.hpp: per-file functions, an intra-repo call
// graph, the quoted-include graph), which is what makes the dataflow and
// transitive rules below possible at all.
//
//   hot-region-cold-contract  No cold-tier GC_REQUIRE / GC_ENSURE / GC_CHECK
//                             inside a GC_HOT_REGION_BEGIN/END region (the
//                             per-access code simulate_fast and the stack
//                             pass execute). A cold contract there silently
//                             reintroduces the per-access overhead that the
//                             GC_FAST_SIM configuration exists to remove.
//   hot-region-balance        BEGIN/END markers must pair, labels must match,
//                             regions must not nest and must close by EOF.
//   hot-region-raw-obs        No direct `obs::` (or `gcaching::obs::`) use
//                             inside a hot region — hot regions carry no
//                             telemetry; record per task or per run, outside
//                             the region.
//   hot-region-raw-lock       No raw std::mutex / shared_mutex / lock_guard /
//                             unique_lock / condition_variable (etc.) inside
//                             a hot region — per-access locking must go
//                             through the gcached shard-lock helper
//                             (ShardGuard). src/gcached/shard_lock.hpp is
//                             the sanctioned home and the one exempt file.
//   hot-region-blocking       No bare std::this_thread::sleep_for/sleep_until/
//                             yield and no std::atomic<> wait/notify_one/
//                             notify_all inside a hot region outside
//                             shard_lock.hpp — scheduling belongs to the
//                             shard-lock helpers, not to per-access code.
//   hot-region-raw-clock      No clock or cycle-counter reads (steady_clock /
//                             system_clock / high_resolution_clock /
//                             clock_gettime / gettimeofday / rdtsc variants)
//                             inside a hot region — a per-access time read
//                             costs tens of ns and skews the latencies the
//                             monitor reports. Timing belongs to the
//                             monitoring layer, outside hot regions;
//                             shard_lock.hpp is the one sanctioned home.
//   lock-discipline           Intra-procedural guard-lifetime dataflow: while
//                             a ShardGuard (or sharded_cache.hpp's
//                             ShardHold, which wraps one) is live, no
//                             blocking call (sleep/wait/notify), no file I/O,
//                             no allocation (new / malloc family /
//                             make_unique / make_shared) or container growth
//                             (push_back / insert / resize / ...), and no
//                             second shard guard (lock-ordering is undefined
//                             across shards → deadlock risk). shard_lock.hpp
//                             itself (the fill sleep and gate) is exempt.
//   hot-region-transitive     The allocation / throw / raw-obs / raw-lock
//                             bans follow the call graph: a function
//                             *reachable from* a hot-region call site must
//                             not allocate, throw, touch obs:: or raw locks
//                             even if it is lexically outside every region.
//                             Findings carry the reach path. Linking is by
//                             unqualified name (duck-typed policies), so the
//                             rule deliberately over-approximates; suppress
//                             true negatives at the site with GCLINT-ALLOW.
//   layering                  The quoted #include graph of src/ must respect
//                             the layer DAG declared in tools/gclint/
//                             layers.txt (one tier per line, bottom-up;
//                             same-line directories may include each other).
//                             Back-edges, undeclared directories, and
//                             file-level include cycles all fail.
//   trait-audit               Every opt-in policy trait declaration
//                             (kRequestedLoadsOnly, kEvictsOutsideMiss,
//                             kIsStackPolicy) must
//                             carry a `// GCLINT-TRAIT-CHECKED-BY: <fn>`
//                             annotation naming the function that contract-
//                             checks the claim; gclint verifies that function
//                             exists and actually contains a contract check,
//                             and that the declaring class is registered in
//                             policies/factory.cpp.
//   factory-registration      The factory's spec tables (make_policy,
//                             simulate_fast_spec, known_policy_names) must
//                             agree, and the differential tests must
//                             enumerate the factory (known_policy_names) so
//                             every registered spec is diff-tested.
//   rng-discipline            No rand()/srand()/std::random_device/
//                             std::mt19937/... outside util/rng.hpp —
//                             determinism given a seed is a hard requirement.
//   no-cout                   No std::cout / printf in library code (src/);
//                             libraries report through return values and
//                             exceptions, tools own the terminal.
//   build-coverage            Every src/**/*.cpp appears in
//                             compile_commands.json.
//   allow-hygiene             Every GCLINT-ALLOW must name known rule ids and
//                             carry a non-empty reason — suppressions cannot
//                             silently accumulate.
//
// Rules match tokens, never comment or string-literal text, so prose and
// test fixtures cannot trip them; the GCLINT-* annotations themselves live
// in comments and are read from comment tokens. A finding on a specific
// line can be suppressed with `// GCLINT-ALLOW(rule[, rule...]): reason` on
// the same or the preceding line. See docs/ANALYSIS.md for the full policy.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "semantic.hpp"  // re-exports gclint::SourceFile

namespace gclint {

/// One rule violation.
struct Finding {
  std::string path;
  std::size_t line = 0;  ///< 1-based
  std::string rule;
  std::string message;
};

/// One entry of the rule catalog (drives SARIF rule metadata and the
/// allow-hygiene known-rule check).
struct RuleInfo {
  std::string id;
  std::string description;
};

/// Every rule gclint knows, in stable order.
const std::vector<RuleInfo>& rule_catalog();

/// True when `id` names a catalog rule.
bool is_known_rule(const std::string& id);

/// Optional whole-run inputs.
struct LintOptions {
  /// Contents of tools/gclint/layers.txt. Empty → the layering rule is
  /// skipped (unit-test trees do not declare layers).
  std::string layers_spec;
};

/// Runs every content rule over `files` (pass the whole tree at once: the
/// trait audit, factory cross-checks, call-graph and include-graph rules are
/// whole-program). Deterministic order: per-file rules in input order, lines
/// ascending, whole-program rules after.
std::vector<Finding> lint(const std::vector<SourceFile>& files);
std::vector<Finding> lint(const std::vector<SourceFile>& files,
                          const LintOptions& options);

/// The build-coverage rule: every library translation unit must appear in the
/// compile database. `compile_commands` is the raw JSON text.
std::vector<Finding> check_build_coverage(const std::vector<SourceFile>& files,
                                          const std::string& compile_commands);

/// One GCLINT-ALLOW site, for `gclint --list-allows`.
struct AllowSite {
  std::string path;
  std::size_t line = 0;
  std::vector<std::string> rules;
  std::string reason;
};

/// Every GCLINT-ALLOW annotation in `files`, in file order then line order.
std::vector<AllowSite> list_allows(const std::vector<SourceFile>& files);

/// "path:line: [rule] message" — the single canonical rendering, used by the
/// CLI and asserted on by tests.
std::string format(const Finding& f);

}  // namespace gclint
