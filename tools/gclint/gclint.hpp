// gclint — the repo-specific convention auditor.
//
// The compiler and the sanitizers enforce the language; gclint enforces the
// repo's own conventions that nothing else machine-checks. It runs every
// rule over a real token stream (lexer.hpp) and a lightweight semantic model
// (semantic.hpp: per-file functions, an intra-repo call graph, the
// quoted-include graph), which is what makes the dataflow and call-graph
// rules below possible at all.
//
//   hot-region-balance        BEGIN/END markers must pair, labels must match,
//                             regions must not nest and must close by EOF.
//   hot-region-cold-contract  No cold-tier GC_REQUIRE / GC_ENSURE / GC_CHECK
//                             inside a GC_HOT_REGION_BEGIN/END region (the
//                             per-access code simulate_fast and the stack
//                             pass execute). A cold contract there silently
//                             reintroduces the per-access overhead that the
//                             GC_FAST_SIM configuration exists to remove.
//   hot-path                  Per-access code must not throw, allocate (new /
//                             malloc family / make_unique / make_shared),
//                             record telemetry (obs:: or a GC_OBS_* macro),
//                             take a raw lock (std::mutex / lock_guard /
//                             condition_variable ...), read a clock or cycle
//                             counter, or block (sleep / yield / wait /
//                             notify). One ban table (hot_path_ban) serves
//                             two scans: the lines inside hot regions (one
//                             finding per line) and every function reachable
//                             from a hot-region call site (one finding per
//                             function, carrying the reach path). Linking is
//                             by unqualified name (duck-typed policies), so
//                             the walk deliberately over-approximates;
//                             suppress a name collision at the function's
//                             first ban with GCLINT-ALLOW. shard_lock.hpp,
//                             home of the shard lock, the fill sleep and the
//                             fill gate, is exempt from the lock, clock and
//                             blocking bans.
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
//   layering                  The quoted #include graph of src/ must respect
//                             the layer DAG declared in tools/gclint/
//                             layers.txt (one tier per line, bottom-up;
//                             same-line directories may include each other).
//                             Back-edges, undeclared directories, and
//                             file-level include cycles all fail.
//   factory-registration      Each differential test (tests/*fast_sim*,
//                             tests/*sweep_batched*) must enumerate the
//                             policy table (known_policy_names) so every
//                             registered spec is diff-tested.
//   rng-discipline            No rand()/srand()/std::random_device/
//                             std::mt19937/... outside util/rng.hpp —
//                             determinism given a seed is a hard requirement.
//   parse-discipline          No std::sto*/strto*/ato*/from_chars outside
//                             util/parse.hpp — every number read from text
//                             goes through parse_number's one strict rule.
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
// test fixtures cannot trip them; the GCLINT-ALLOW annotations themselves
// live in comments and are read from comment tokens. A finding on a specific
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
/// factory cross-checks, the call-graph walk and the include-graph rule are
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
