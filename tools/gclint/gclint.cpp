#include "gclint.hpp"

#include <algorithm>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <utility>

namespace gclint {

namespace {

// ---- token scanning helpers -------------------------------------------------

/// Skippable in code scans: comments always, directive tokens usually (macro
/// bodies are not code the rules should attribute to the surrounding scope).
bool is_code(const Token& t) {
  return t.kind != Tok::kComment && !t.in_directive;
}

/// Index of the next code token after `i` in [0, tokens.size()), or npos.
std::size_t next_code(const std::vector<Token>& tokens, std::size_t i) {
  for (++i; i < tokens.size(); ++i)
    if (is_code(tokens[i])) return i;
  return std::string::npos;
}

/// True when tokens[i] is `name` used as a call / macro invocation: an
/// identifier immediately followed by '('.
bool is_call_at(const std::vector<Token>& tokens, std::size_t i) {
  const std::size_t j = next_code(tokens, i);
  return j != std::string::npos && is_punct(tokens[j], "(");
}

void add(std::vector<Finding>& out, const FileModel& m, std::size_t line,
         const std::string& rule, const std::string& message) {
  if (m.allowed(line, rule)) return;
  out.push_back({m.file->path, line, rule, message});
}

// ---- rule sets --------------------------------------------------------------

const std::set<std::string>& blocking_calls() {
  // Scheduling / parking primitives: these block the calling thread (or wake
  // others), which neither a hot path nor a shard guard may do.
  static const std::set<std::string> kTokens = {
      "sleep_for", "sleep_until", "yield",      "wait",
      "wait_for",  "wait_until",  "notify_one", "notify_all"};
  return kTokens;
}

const std::set<std::string>& io_calls() {
  static const std::set<std::string> kTokens = {
      "fopen", "freopen", "fread", "fwrite", "fflush",
      "fgets", "fputs",   "getline"};
  return kTokens;
}

const std::set<std::string>& io_stream_types() {
  static const std::set<std::string> kTokens = {"ifstream", "ofstream",
                                                "fstream"};
  return kTokens;
}

const std::set<std::string>& alloc_calls() {
  static const std::set<std::string> kTokens = {
      "malloc",      "calloc",      "realloc", "aligned_alloc",
      "make_unique", "make_shared"};
  return kTokens;
}

const std::set<std::string>& growth_calls() {
  // Members that may grow/rehash their container — an O(n) reallocation
  // inside a shard's critical section stalls every client of the shard.
  static const std::set<std::string> kTokens = {
      "push_back", "emplace_back", "emplace", "insert",
      "resize",    "reserve",      "rehash"};
  return kTokens;
}

const std::set<std::string>& rng_tokens() {
  static const std::set<std::string> kTokens = {
      "rand",          "srand",   "drand48",    "random_device",
      "mt19937",       "mt19937_64", "minstd_rand",
      "default_random_engine"};
  return kTokens;
}

/// The standard library's text-to-number readers; each has its own idea of
/// leading space, signs, trailing text and range.
const std::set<std::string>& number_parse_tokens() {
  static const std::set<std::string> kTokens = {
      "stoi",   "stol",    "stoll",    "stoul",     "stoull",    "stof",
      "stod",   "stold",   "strtol",   "strtoll",   "strtoul",   "strtoull",
      "strtof", "strtod",  "strtold",  "strtoimax", "strtoumax", "atoi",
      "atol",   "atoll",   "atof",     "from_chars"};
  return kTokens;
}

bool is_lock_home(const FileModel& m) {
  return ends_with_path(m.file->path, "src/gcached/shard_lock.hpp");
}

// ---- rule: hot-region balance (marker state machine, v1 semantics) ----------

void check_balance(const FileModel& m, std::vector<Finding>& out) {
  constexpr const char* kRule = "hot-region-balance";
  std::optional<std::string> open;
  std::size_t open_line = 0;
  for (const RegionMarker& mk : m.markers) {
    if (mk.begin) {
      if (open) {
        add(out, m, mk.line, kRule,
            "GC_HOT_REGION_BEGIN(" + mk.label + ") while region '" + *open +
                "' (line " + std::to_string(open_line) +
                ") is still open — regions must not nest");
      }
      open = mk.label;
      open_line = mk.line;
    } else {
      if (!open) {
        add(out, m, mk.line, kRule,
            "GC_HOT_REGION_END(" + mk.label + ") without a matching BEGIN");
      } else if (*open != mk.label) {
        add(out, m, mk.line, kRule,
            "GC_HOT_REGION_END(" + mk.label + ") does not match open region '" +
                *open + "'");
      }
      open.reset();
    }
  }
  if (open) {
    add(out, m, open_line, kRule,
        "GC_HOT_REGION_BEGIN(" + *open + ") never closed");
  }
}

// ---- rule: hot-path (the ban table) ------------------------------------------

/// One banned construct: what it is, and where that work belongs instead.
struct Ban {
  std::string what;
  const char* why;
};

/// The one table of what per-access code must not do, shared by both halves
/// of the hot-path rule: the lexical scan of hot-region lines and the walk
/// over every function reachable from a hot-region call site. Returns the ban
/// that tokens[i] starts, if any. shard_lock.hpp, the sanctioned home of the
/// shard lock, the fill sleep and the fill gate's wait measurement, is exempt
/// from the lock, clock and blocking bans.
std::optional<Ban> hot_path_ban(const FileModel& m, std::size_t i) {
  static const std::set<std::string> kRawLocks = {
      "mutex",        "shared_mutex",       "recursive_mutex",
      "timed_mutex",  "shared_timed_mutex", "lock_guard",
      "unique_lock",  "scoped_lock",        "shared_lock",
      "condition_variable", "condition_variable_any"};
  // A per-access time read costs tens of nanoseconds (vDSO call or
  // serializing rdtsc) and skews the very latencies gcmon reports.
  static const std::set<std::string> kClocks = {
      "steady_clock",  "system_clock", "high_resolution_clock",
      "clock_gettime", "gettimeofday", "rdtsc",
      "__rdtsc",       "__builtin_ia32_rdtsc",
      "__builtin_readcyclecounter"};
  constexpr const char* kHoist = "hoist the work out of the per-access path";
  constexpr const char* kNoTelemetry =
      "hot paths carry no telemetry; record per task or per run, outside "
      "the per-access path";
  const Token& t = m.tokens[i];
  if (!is_code(t) || t.kind != Tok::kIdent) return std::nullopt;
  const std::size_t j = next_code(m.tokens, i);
  const auto next_is = [&](const char* p) {
    return j != std::string::npos && is_punct(m.tokens[j], p);
  };
  if (t.text == "throw") return Ban{"'throw'", kHoist};
  if (t.text == "new") return Ban{"allocation 'new'", kHoist};
  if (alloc_calls().count(t.text) > 0 && (next_is("(") || next_is("<")))
    return Ban{"allocation '" + t.text + "'", kHoist};
  if (t.text == "obs" && next_is("::"))
    return Ban{"direct obs:: use", kNoTelemetry};
  if (t.text.rfind("GC_OBS_", 0) == 0 && next_is("("))
    return Ban{"telemetry macro '" + t.text + "'", kNoTelemetry};
  if (is_lock_home(m)) return std::nullopt;
  if (kRawLocks.count(t.text) > 0)
    return Ban{"raw lock primitive '" + t.text + "'",
               "per-access locking goes through the shard-lock helpers in "
               "src/gcached/shard_lock.hpp"};
  if (kClocks.count(t.text) > 0)
    return Ban{"clock read '" + t.text + "'",
               "timing belongs to the monitoring layer (loadgen's bracketed "
               "measurement, gcmon's snapshot thread)"};
  if (blocking_calls().count(t.text) > 0 && next_is("("))
    return Ban{"blocking call '" + t.text + "'",
               "scheduling belongs to the shard_lock.hpp helpers"};
  return std::nullopt;
}

// ---- rules: lexical hot-region content --------------------------------------

void check_hot_region_content(const FileModel& m, std::vector<Finding>& out) {
  std::size_t last_ban_line = 0;  // one hot-path finding per line
  for (std::size_t i = 0; i < m.tokens.size(); ++i) {
    const Token& t = m.tokens[i];
    if (!is_code(t) || t.kind != Tok::kIdent) continue;
    const HotRegion* r = m.region_of(t.line);
    if (r == nullptr) continue;
    if ((t.text == "GC_REQUIRE" || t.text == "GC_ENSURE" ||
         t.text == "GC_CHECK") &&
        is_call_at(m.tokens, i)) {
      add(out, m, t.line, "hot-region-cold-contract",
          t.text + " inside hot region '" + r->label +
              "' — use the GC_HOT_* tier (compiled out under GC_FAST_SIM) " +
              "or move the check out of the per-access path");
    }
    if (t.line == last_ban_line) continue;
    if (const auto ban = hot_path_ban(m, i)) {
      last_ban_line = t.line;
      add(out, m, t.line, "hot-path",
          ban->what + " inside hot region '" + r->label + "' — " + ban->why);
    }
  }
}

// ---- rule: lock-discipline (intra-procedural guard-lifetime dataflow) -------

void check_lock_discipline(const FileModel& m, std::vector<Finding>& out) {
  constexpr const char* kRule = "lock-discipline";
  if (!is_library_file(m.file->path) || is_lock_home(m)) return;
  struct LiveGuard {
    std::string name;
    std::size_t line = 0;
    int depth = 0;  // brace depth at declaration; dies when depth drops below
  };
  for (const FunctionDef& f : m.functions) {
    std::vector<LiveGuard> live;
    int depth = 0;
    std::size_t last_line = 0;  // one finding per line
    // Deliberately bypasses add(): lock-discipline is NOT suppressible.
    // Since the fill-register protocol proved every blocking case can
    // release the shard first (register in flight, sleep unlocked,
    // re-acquire to commit), there is no legitimate residual use of
    // GCLINT-ALLOW here — no blocking under a shard guard, period.
    const auto flag = [&](std::size_t line, const std::string& what) {
      if (line == last_line) return;
      last_line = line;
      const LiveGuard& g = live.front();
      out.push_back(
          {m.file->path, line, kRule,
           what + " while shard guard '" + g.name + "' (line " +
               std::to_string(g.line) +
               ") is live — the shard's clients all stall behind this; move "
               "the work outside the guard (the fill-register protocol: "
               "publish in-flight state, release, re-acquire to commit)"});
    };
    for (std::size_t i = f.body_begin; i < f.body_end && i < m.tokens.size();
         ++i) {
      const Token& t = m.tokens[i];
      if (!is_code(t)) continue;
      if (is_punct(t, "{")) {
        ++depth;
        continue;
      }
      if (is_punct(t, "}")) {
        --depth;
        while (!live.empty() && live.back().depth > depth) live.pop_back();
        continue;
      }
      if (t.kind != Tok::kIdent) continue;
      if (t.text == "ShardGuard" || t.text == "ShardHold") {
        const std::size_t j = next_code(m.tokens, i);
        if (j == std::string::npos || m.tokens[j].kind != Tok::kIdent)
          continue;  // type mention, not a named guard declaration
        if (!live.empty()) {
          out.push_back(
              {m.file->path, t.line, kRule,
               "second shard guard acquired while '" + live.front().name +
                   "' (line " + std::to_string(live.front().line) +
                   ") is live — shard lock order is undefined, deadlock "
                   "risk"});
        }
        live.push_back({m.tokens[j].text, t.line, depth});
        continue;
      }
      if (live.empty()) continue;
      if (blocking_calls().count(t.text) > 0 && is_call_at(m.tokens, i)) {
        flag(t.line, "blocking call '" + t.text + "'");
      } else if (io_calls().count(t.text) > 0 && is_call_at(m.tokens, i)) {
        flag(t.line, "file I/O '" + t.text + "'");
      } else if (io_stream_types().count(t.text) > 0) {
        flag(t.line, "file I/O '" + t.text + "'");
      } else if (t.text == "new") {
        flag(t.line, "allocation 'new'");
      } else if (alloc_calls().count(t.text) > 0) {
        const std::size_t j = next_code(m.tokens, i);
        if (j != std::string::npos && (is_punct(m.tokens[j], "(") ||
                                       is_punct(m.tokens[j], "<")))
          flag(t.line, "allocation '" + t.text + "'");
      } else if (growth_calls().count(t.text) > 0 && i > 0 &&
                 is_call_at(m.tokens, i)) {
        // Member syntax only (x.push_back / x->insert): a free function named
        // `insert` is not container growth.
        for (std::size_t p = i; p-- > 0;) {
          if (!is_code(m.tokens[p])) continue;
          if (is_punct(m.tokens[p], ".") || is_punct(m.tokens[p], "->"))
            flag(t.line, "container growth '" + t.text + "'");
          break;
        }
      }
    }
  }
}

// ---- rule: hot-path along the call graph ------------------------------------

/// Reports the first ban in a function reachable from a hot region: one
/// finding per function, so an ALLOW on that line vouches for all of it.
void scan_reachable_body(const FileModel& m, const FunctionDef& f,
                         const std::string& origin, const std::string& path,
                         std::vector<Finding>& out) {
  for (std::size_t i = f.body_begin; i < f.body_end && i < m.tokens.size();
       ++i) {
    const auto ban = hot_path_ban(m, i);
    if (!ban) continue;
    add(out, m, m.tokens[i].line, "hot-path",
        ban->what + " in '" + f.name + "', which is reachable from hot region " +
            origin + " via " + path + " — " + ban->why +
            "; hot-path purity is transitive (or GCLINT-ALLOW here with a "
            "reason)");
    return;
  }
}

void check_hot_path_reach(const Program& prog, std::vector<Finding>& out) {
  constexpr std::size_t kMaxDepth = 12;
  struct Item {
    std::string callee;
    std::string origin;  // "'label' (path:line)"
    std::string path;    // "a -> b"
    std::size_t depth = 0;
  };
  std::deque<Item> queue;
  for (const FileModel& m : prog.files) {
    if (!is_library_file(m.file->path)) continue;
    for (std::size_t fj = 0; fj < m.functions.size(); ++fj) {
      for (const CallSite& cs : m.calls[fj]) {
        const HotRegion* r = m.region_of(cs.line);
        if (r == nullptr) continue;
        queue.push_back({cs.callee,
                         "'" + r->label + "' (" + m.file->path + ":" +
                             std::to_string(cs.line) + ")",
                         cs.callee, 1});
      }
    }
  }
  std::set<std::pair<std::size_t, std::size_t>> visited;  // (file, fn)
  while (!queue.empty()) {
    const Item item = queue.front();
    queue.pop_front();
    const auto it = prog.functions_by_name.find(item.callee);
    if (it == prog.functions_by_name.end()) continue;
    for (const auto& [fi, fj] : it->second) {
      const FileModel& m = prog.files[fi];
      if (!is_library_file(m.file->path)) continue;
      if (!visited.insert({fi, fj}).second) continue;
      const FunctionDef& f = m.functions[fj];
      // Functions lexically inside a hot region are already covered by the
      // lexical scan; they are traversed but not re-scanned.
      if (m.region_of(f.line) == nullptr)
        scan_reachable_body(m, f, item.origin, item.path, out);
      if (item.depth >= kMaxDepth) continue;
      for (const CallSite& cs : m.calls[fj]) {
        if (prog.functions_by_name.count(cs.callee) == 0) continue;
        queue.push_back({cs.callee, item.origin,
                         item.path + " -> " + cs.callee, item.depth + 1});
      }
    }
  }
}

// ---- rule: layering ---------------------------------------------------------

/// Directory of a library file: "src/core/x.hpp" -> "core"; "" when the file
/// sits directly in src/ or the src/ segment is absent.
std::string src_dir_of(const std::string& path) {
  auto pos = path.rfind("src/");
  if (pos != std::string::npos && (pos == 0 || path[pos - 1] == '/')) {
    const std::size_t start = pos + 4;
    const auto slash = path.find('/', start);
    if (slash == std::string::npos) return "";
    return path.substr(start, slash - start);
  }
  return "";
}

void check_layering(const Program& prog, const std::string& spec,
                    std::vector<Finding>& out) {
  constexpr const char* kRule = "layering";
  // Parse the spec: one tier per non-comment line, bottom-up; directories on
  // the same line share a tier (and may include each other).
  std::map<std::string, int> tier_of;
  {
    std::istringstream is(spec);
    std::string line;
    int tier = 0;
    while (std::getline(is, line)) {
      const auto hash = line.find('#');
      if (hash != std::string::npos) line = line.substr(0, hash);
      std::istringstream ls(line);
      std::string dir;
      bool any = false;
      while (ls >> dir) {
        tier_of[dir] = tier;
        any = true;
      }
      if (any) ++tier;
    }
  }
  if (tier_of.empty()) return;

  // Index scanned library files by path for include resolution.
  std::map<std::string, std::size_t> by_path;
  for (std::size_t i = 0; i < prog.files.size(); ++i)
    by_path[prog.files[i].file->path] = i;

  // Edge list for cycle detection: file index -> (file index, include line).
  std::map<std::size_t, std::vector<std::pair<std::size_t, std::size_t>>>
      edges;

  for (std::size_t i = 0; i < prog.files.size(); ++i) {
    const FileModel& m = prog.files[i];
    if (!is_library_file(m.file->path)) continue;
    const std::string from = src_dir_of(m.file->path);
    const auto from_tier = tier_of.find(from);
    if (from.empty()) continue;  // nothing sits directly in src/
    if (from_tier == tier_of.end()) {
      add(out, m, 1, kRule,
          "src/" + from + "/ is not declared in the layer DAG — add it to a "
          "tier in tools/gclint/layers.txt");
      continue;
    }
    for (std::size_t k = 0; k < m.includes.size(); ++k) {
      const std::string& target = m.includes[k];
      const std::size_t line = m.include_lines[k];
      const auto slash = target.find('/');
      if (slash == std::string::npos) continue;  // same-directory include
      const std::string to = target.substr(0, slash);
      const auto to_tier = tier_of.find(to);
      if (to_tier == tier_of.end()) {
        // Only complain when the include actually resolves into src/ —
        // quoted includes of external headers are none of our business.
        if (by_path.count("src/" + target) > 0)
          add(out, m, line, kRule,
              "src/" + to + "/ is not declared in the layer DAG — add it to "
              "a tier in tools/gclint/layers.txt");
        continue;
      }
      if (to_tier->second > from_tier->second) {
        add(out, m, line, kRule,
            "layering back-edge: src/" + from + "/ (tier " +
                std::to_string(from_tier->second) + ") includes \"" + target +
                "\" from src/" + to + "/ (tier " +
                std::to_string(to_tier->second) +
                ") — dependencies must point down the DAG declared in "
                "tools/gclint/layers.txt");
      }
      const auto dep = by_path.find("src/" + target);
      if (dep != by_path.end()) edges[i].push_back({dep->second, line});
    }
  }

  // File-level include cycles (possible even inside one tier). Iterative
  // DFS, deterministic order, each cycle reported once at the closing edge.
  std::map<std::size_t, int> color;  // 0 white, 1 grey, 2 black
  std::vector<std::size_t> chain;
  std::set<std::string> seen_cycles;
  const std::function<void(std::size_t)> dfs = [&](std::size_t u) {
    color[u] = 1;
    chain.push_back(u);
    for (const auto& [v, line] : edges[u]) {
      if (color[v] == 1) {
        // Found a cycle: chain from v to u, closing edge u -> v.
        std::string desc;
        bool in_cycle = false;
        std::vector<std::string> members;
        for (std::size_t node : chain) {
          if (node == v) in_cycle = true;
          if (!in_cycle) continue;
          members.push_back(prog.files[node].file->path);
          desc += prog.files[node].file->path + " -> ";
        }
        desc += prog.files[v].file->path;
        std::sort(members.begin(), members.end());
        std::string key;
        for (const std::string& p : members) key += p + "|";
        if (seen_cycles.insert(key).second)
          add(out, prog.files[u], line, kRule,
              "include cycle: " + desc +
                  " — break the cycle (extract the shared declarations "
                  "downward)");
      } else if (color[v] == 0) {
        dfs(v);
      }
    }
    chain.pop_back();
    color[u] = 2;
  };
  for (const auto& [u, _] : edges)
    if (color[u] == 0) dfs(u);
}

// ---- rule: factory registration ---------------------------------------------

/// Each differential suite must enumerate the policy table rather than
/// hard-code a spec list that silently goes stale.
void check_factory(const Program& prog, std::vector<Finding>& out) {
  for (const FileModel& t : prog.files) {
    const std::string& path = t.file->path;
    const bool differential = path.find("fast_sim") != std::string::npos ||
                              path.find("sweep_batched") != std::string::npos;
    if (!is_test_file(path) || !differential) continue;
    const bool enumerates =
        std::any_of(t.tokens.begin(), t.tokens.end(), [](const Token& tk) {
          return is_code(tk) && is_ident(tk, "known_policy_names");
        });
    if (!enumerates)
      add(out, t, 1, "factory-registration",
          "differential test does not enumerate known_policy_names() — "
          "policies added to the table would not be differentially tested");
  }
}

// ---- rules: rng-discipline / parse-discipline / no-cout ---------------------

void check_library_hygiene(const FileModel& m, std::vector<Finding>& out) {
  const std::string& path = m.file->path;
  if (!is_library_file(path)) return;
  const bool is_rng_home = ends_with_path(path, "src/util/rng.hpp");
  const bool is_parse_home = ends_with_path(path, "src/util/parse.hpp");
  std::size_t last_cout_line = 0;
  for (std::size_t i = 0; i < m.tokens.size(); ++i) {
    const Token& t = m.tokens[i];
    if (t.kind != Tok::kIdent || t.kind == Tok::kComment) continue;
    if (!is_rng_home && rng_tokens().count(t.text) > 0) {
      add(out, m, t.line, "rng-discipline",
          "'" + t.text + "' outside util/rng.hpp — all randomness must flow " +
              "through the seeded SplitMix64 (determinism across thread " +
              "schedules is a hard requirement)");
    }
    if (!is_parse_home && number_parse_tokens().count(t.text) > 0) {
      add(out, m, t.line, "parse-discipline",
          "'" + t.text + "' outside util/parse.hpp — every number read " +
              "from text goes through parse_number, so all inputs refuse " +
              "the same malformed values");
    }
    const bool is_cout = t.text == "cout";
    const bool is_printf = t.text == "printf" && is_call_at(m.tokens, i);
    if ((is_cout || is_printf) && t.line != last_cout_line) {
      last_cout_line = t.line;
      add(out, m, t.line, "no-cout",
          "terminal output in library code — return data or throw; only "
          "tools/ and bench/ own stdout");
    }
  }
}

// ---- rule: allow-hygiene ----------------------------------------------------

void check_allow_hygiene(const Program& prog, std::vector<Finding>& out) {
  constexpr const char* kRule = "allow-hygiene";
  for (const FileModel& m : prog.files) {
    for (const AllowAnnotation& a : m.allows) {
      // Deliberately NOT suppressible: an ALLOW cannot vouch for itself.
      if (a.reason.empty())
        out.push_back({m.file->path, a.line, kRule,
                       "GCLINT-ALLOW without a reason — every suppression "
                       "must say why: GCLINT-ALLOW(rule): reason"});
      if (a.rules.empty())
        out.push_back({m.file->path, a.line, kRule,
                       "GCLINT-ALLOW names no rule — write "
                       "GCLINT-ALLOW(rule[, rule...]): reason"});
      for (const std::string& r : a.rules) {
        if (!is_known_rule(r)) {
          out.push_back({m.file->path, a.line, kRule,
                         "GCLINT-ALLOW names unknown rule '" + r +
                             "' — see the rule catalog in docs/ANALYSIS.md"});
        } else if (r == "lock-discipline") {
          out.push_back(
              {m.file->path, a.line, kRule,
               "GCLINT-ALLOW(lock-discipline) has no effect — the rule is "
               "non-suppressible since the fill-register protocol removed the "
               "last sanctioned blocking-under-guard site; restructure the "
               "code to release the shard instead (docs/ANALYSIS.md)"});
        }
      }
    }
  }
}

}  // namespace

// ---- public API -------------------------------------------------------------

const std::vector<RuleInfo>& rule_catalog() {
  static const std::vector<RuleInfo> kRules = {
      {"hot-region-balance",
       "GC_HOT_REGION_BEGIN/END markers must pair, labels must match, "
       "regions must not nest and must close by EOF."},
      {"hot-region-cold-contract",
       "No cold-tier GC_REQUIRE/GC_ENSURE/GC_CHECK inside a hot region; use "
       "the GC_HOT_* tier, which compiles out under GC_FAST_SIM."},
      {"hot-path",
       "Per-access code must not throw, allocate, record telemetry (obs:: or "
       "GC_OBS_*), take raw locks, read clocks or block: banned inside hot "
       "regions and in every function reachable from a hot-region call site. "
       "shard_lock.hpp is exempt from the lock, clock and blocking bans."},
      {"lock-discipline",
       "While a ShardGuard/ShardHold is live: no blocking calls, no "
       "file I/O, no allocation or container growth, no second shard guard "
       "(deadlock risk). Non-suppressible — no blocking under a guard, "
       "period; fills go through the fill-register protocol (register, "
       "release, re-acquire to commit)."},
      {"layering",
       "The src/ include graph must respect the layer DAG declared in "
       "tools/gclint/layers.txt: no back-edges, no undeclared directories, "
       "no include cycles."},
      {"factory-registration",
       "Each differential test (tests/*fast_sim*, tests/*sweep_batched*) "
       "must enumerate known_policy_names()."},
      {"rng-discipline",
       "No raw RNG primitives outside util/rng.hpp; all randomness flows "
       "through the seeded SplitMix64."},
      {"parse-discipline",
       "No std::sto*/strto*/ato*/from_chars outside util/parse.hpp; every "
       "number read from text goes through parse_number."},
      {"no-cout",
       "No std::cout/printf in library code; tools own the terminal."},
      {"build-coverage",
       "Every src/**/*.cpp must appear in compile_commands.json."},
      {"allow-hygiene",
       "Every GCLINT-ALLOW must name known rules and carry a non-empty "
       "reason."},
  };
  return kRules;
}

bool is_known_rule(const std::string& id) {
  for (const RuleInfo& r : rule_catalog())
    if (r.id == id) return true;
  return false;
}

std::vector<Finding> lint(const std::vector<SourceFile>& files) {
  return lint(files, LintOptions{});
}

std::vector<Finding> lint(const std::vector<SourceFile>& files,
                          const LintOptions& options) {
  const Program prog = analyze_all(files);
  std::vector<Finding> out;
  for (const FileModel& m : prog.files) {
    check_balance(m, out);
    check_hot_region_content(m, out);
    check_library_hygiene(m, out);
    check_lock_discipline(m, out);
  }
  check_factory(prog, out);
  check_hot_path_reach(prog, out);
  if (!options.layers_spec.empty())
    check_layering(prog, options.layers_spec, out);
  check_allow_hygiene(prog, out);
  return out;
}

std::vector<Finding> check_build_coverage(const std::vector<SourceFile>& files,
                                          const std::string& compile_commands) {
  std::vector<Finding> out;
  for (const SourceFile& f : files) {
    if (!is_library_file(f.path) || !ends_with_path(f.path, ".cpp")) continue;
    if (compile_commands.find(f.path) == std::string::npos)
      out.push_back({f.path, 1, "build-coverage",
                     "translation unit does not appear in "
                     "compile_commands.json — files outside the build escape "
                     "the sanitizers and clang-tidy"});
  }
  return out;
}

std::vector<AllowSite> list_allows(const std::vector<SourceFile>& files) {
  std::vector<AllowSite> out;
  for (const SourceFile& f : files) {
    const FileModel m = analyze(f);
    for (const AllowAnnotation& a : m.allows)
      out.push_back({f.path, a.line, a.rules, a.reason});
  }
  return out;
}

std::string format(const Finding& f) {
  std::ostringstream os;
  os << f.path << ':' << f.line << ": [" << f.rule << "] " << f.message;
  return os.str();
}

}  // namespace gclint
