#include "gclint.hpp"

#include <algorithm>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <sstream>

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

const std::set<std::string>& raw_lock_tokens() {
  // Raw synchronization primitives banned from hot regions: per-access
  // locking must go through the gcached shard-lock helper (ShardGuard),
  // which bundles try-lock-first, yield-and-retry and contention telemetry. shard_lock.hpp itself is the sanctioned home.
  static const std::set<std::string> kTokens = {
      "mutex",        "shared_mutex",       "recursive_mutex",
      "timed_mutex",  "shared_timed_mutex", "lock_guard",
      "unique_lock",  "scoped_lock",        "shared_lock",
      "condition_variable", "condition_variable_any"};
  return kTokens;
}

const std::set<std::string>& raw_clock_tokens() {
  // Clock and cycle-counter primitives banned from hot regions: a per-access
  // time read costs tens of nanoseconds (vDSO call or serializing rdtsc) and
  // silently skews the very latencies gcmon reports. Timing belongs to the
  // monitoring layer — loadgen's bracketed measurement and the gcmon
  // snapshot thread — never to the access path itself.
  static const std::set<std::string> kTokens = {
      "steady_clock",  "system_clock", "high_resolution_clock",
      "clock_gettime", "gettimeofday", "rdtsc",
      "__rdtsc",       "__builtin_ia32_rdtsc",
      "__builtin_readcyclecounter"};
  return kTokens;
}

const std::set<std::string>& blocking_calls() {
  // Scheduling / parking primitives: these block the calling thread (or wake
  // others), which per-access code must never do outside shard_lock.hpp.
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

const std::set<std::string>& contract_calls() {
  static const std::set<std::string> kTokens = {
      "GC_HOT_REQUIRE", "GC_HOT_ENSURE", "GC_HOT_CHECK",
      "GC_REQUIRE",     "GC_ENSURE",     "GC_CHECK"};
  return kTokens;
}

bool is_lock_home(const FileModel& m) {
  return ends_with_path(m.file->path, "src/gcached/shard_lock.hpp");
}

bool is_clock_home(const FileModel& m) {
  // The one sanctioned home for time reads in a hot region: shard_lock.hpp,
  // whose FillGate measures the delayed-hit wait.
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

// ---- rules: lexical hot-region content --------------------------------------

void check_hot_region_content(const FileModel& m, std::vector<Finding>& out) {
  constexpr const char* kCold = "hot-region-cold-contract";
  constexpr const char* kRawObs = "hot-region-raw-obs";
  constexpr const char* kRawLock = "hot-region-raw-lock";
  constexpr const char* kBlocking = "hot-region-blocking";
  constexpr const char* kRawClock = "hot-region-raw-clock";
  const bool lock_home = is_lock_home(m);
  const bool clock_home = is_clock_home(m);
  std::size_t last_lock_line = 0;      // one raw-lock finding per line
  std::size_t last_blocking_line = 0;  // one blocking finding per line
  std::size_t last_clock_line = 0;     // one raw-clock finding per line
  for (std::size_t i = 0; i < m.tokens.size(); ++i) {
    const Token& t = m.tokens[i];
    if (!is_code(t) || t.kind != Tok::kIdent) continue;
    const HotRegion* r = m.region_of(t.line);
    if (r == nullptr) continue;
    if ((t.text == "GC_REQUIRE" || t.text == "GC_ENSURE" ||
         t.text == "GC_CHECK") &&
        is_call_at(m.tokens, i)) {
      add(out, m, t.line, kCold,
          t.text + " inside hot region '" + r->label +
              "' — use the GC_HOT_* tier (compiled out under GC_FAST_SIM) " +
              "or move the check out of the per-access path");
    }
    if (t.text == "obs") {
      const std::size_t j = next_code(m.tokens, i);
      if (j != std::string::npos && is_punct(m.tokens[j], "::")) {
        add(out, m, t.line, kRawObs,
            "direct obs:: use inside hot region '" + r->label +
                "' — hot regions carry no telemetry; record per task or "
                "per run, outside the region");
      }
    }
    if (!clock_home && raw_clock_tokens().count(t.text) > 0 &&
        t.line != last_clock_line) {
      last_clock_line = t.line;
      add(out, m, t.line, kRawClock,
          "'" + t.text + "' inside hot region '" + r->label +
              "' — per-access code must not read clocks or cycle counters; "
              "timing belongs to the monitoring layer (loadgen's bracketed "
              "measurement, gcmon's snapshot thread)");
    }
    if (!lock_home) {
      if (raw_lock_tokens().count(t.text) > 0 && t.line != last_lock_line) {
        last_lock_line = t.line;
        add(out, m, t.line, kRawLock,
            "'" + t.text + "' inside hot region '" + r->label +
                "' — per-access locking must go through the shard-lock "
                "helpers in src/gcached/shard_lock.hpp (try-lock + "
                "yield-and-retry + contention telemetry)");
      }
      if (blocking_calls().count(t.text) > 0 && is_call_at(m.tokens, i) &&
          t.line != last_blocking_line) {
        last_blocking_line = t.line;
        add(out, m, t.line, kBlocking,
            "'" + t.text + "' inside hot region '" + r->label +
                "' — per-access code must not sleep, park, or wake threads; "
                "scheduling belongs to the shard_lock.hpp helpers");
      }
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
    // Since the MSHR fill path proved every blocking case can release the
    // shard first (register in flight, sleep unlocked, re-acquire to
    // commit), there is no legitimate residual use of GCLINT-ALLOW here —
    // no blocking under a shard guard, period.
    const auto flag = [&](std::size_t line, const std::string& what) {
      if (line == last_line) return;
      last_line = line;
      const LiveGuard& g = live.front();
      out.push_back(
          {m.file->path, line, kRule,
           what + " while shard guard '" + g.name + "' (line " +
               std::to_string(g.line) +
               ") is live — the shard's clients all stall behind this; move "
               "the work outside the guard (the MSHR pattern: publish "
               "in-flight state, release, re-acquire to commit)"});
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

// ---- rule: hot-region transitive purity -------------------------------------

struct FnRef {
  std::size_t file = 0;
  std::size_t fn = 0;
  bool operator<(const FnRef& o) const {
    return file != o.file ? file < o.file : fn < o.fn;
  }
};

void scan_reachable_body(const Program& prog, const FnRef& ref,
                         const std::string& origin, const std::string& path,
                         std::set<std::string>& reported,
                         std::vector<Finding>& out) {
  constexpr const char* kRule = "hot-region-transitive";
  const FileModel& m = prog.files[ref.file];
  const FunctionDef& f = m.functions[ref.fn];
  const bool lock_home = is_lock_home(m);
  const auto flag = [&](std::size_t line, const std::string& what) {
    const std::string key =
        m.file->path + ":" + std::to_string(line) + ":" + what;
    if (!reported.insert(key).second) return;
    add(out, m, line, kRule,
        what + " in '" + f.name + "', which is reachable from hot region " +
            origin + " via " + path +
            " — hot-path purity is transitive; hoist the work out of the "
            "per-access path (or GCLINT-ALLOW here with a reason)");
  };
  for (std::size_t i = f.body_begin; i < f.body_end && i < m.tokens.size();
       ++i) {
    const Token& t = m.tokens[i];
    if (!is_code(t) || t.kind != Tok::kIdent) continue;
    if (t.text == "throw") {
      flag(t.line, "'throw'");
    } else if (t.text == "new") {
      flag(t.line, "allocation 'new'");
    } else if (alloc_calls().count(t.text) > 0) {
      const std::size_t j = next_code(m.tokens, i);
      if (j != std::string::npos &&
          (is_punct(m.tokens[j], "(") || is_punct(m.tokens[j], "<")))
        flag(t.line, "allocation '" + t.text + "'");
    } else if (t.text == "obs") {
      const std::size_t j = next_code(m.tokens, i);
      if (j != std::string::npos && is_punct(m.tokens[j], "::"))
        flag(t.line, "direct obs:: use");
    } else if (!lock_home && raw_lock_tokens().count(t.text) > 0) {
      flag(t.line, "raw lock primitive '" + t.text + "'");
    }
  }
}

void check_transitive(const Program& prog, std::vector<Finding>& out) {
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
  std::set<FnRef> visited;
  std::set<std::string> reported;
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
      // lexical rules; they are traversed but not re-scanned.
      if (m.region_of(f.line) == nullptr)
        scan_reachable_body(prog, {fi, fj}, item.origin, item.path, reported,
                            out);
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

// ---- rule: trait audit ------------------------------------------------------

struct TraitDecl {
  std::size_t file = 0;
  std::size_t line = 0;
  std::string trait;
  std::string class_name;
  std::string checked_by;  // empty when the annotation is missing
};

bool is_policies_header(const std::string& path) {
  return path_has_prefix(path, "src/policies/") && ends_with_path(path, ".hpp");
}

std::vector<TraitDecl> collect_trait_decls(const Program& prog) {
  static const std::set<std::string> kTraits = {
      "kRequestedLoadsOnly", "kEvictsOutsideMiss", "kIsStackPolicy"};
  std::vector<TraitDecl> decls;
  for (std::size_t fi = 0; fi < prog.files.size(); ++fi) {
    const FileModel& m = prog.files[fi];
    if (!is_policies_header(m.file->path)) continue;
    for (std::size_t i = 0; i + 2 < m.tokens.size(); ++i) {
      const Token& t = m.tokens[i];
      // `static constexpr bool kTrait = true`
      if (!is_code(t) || !is_ident(t, "static")) continue;
      std::size_t j = next_code(m.tokens, i);
      if (j == std::string::npos || !is_ident(m.tokens[j], "constexpr"))
        continue;
      j = next_code(m.tokens, j);
      if (j == std::string::npos || !is_ident(m.tokens[j], "bool")) continue;
      j = next_code(m.tokens, j);
      if (j == std::string::npos || m.tokens[j].kind != Tok::kIdent ||
          kTraits.count(m.tokens[j].text) == 0)
        continue;
      const Token& name = m.tokens[j];
      j = next_code(m.tokens, j);
      if (j == std::string::npos || !is_punct(m.tokens[j], "=")) continue;
      j = next_code(m.tokens, j);
      if (j == std::string::npos || !is_ident(m.tokens[j], "true")) continue;
      TraitDecl d;
      d.file = fi;
      d.line = name.line;
      d.trait = name.text;
      // Nearest preceding `class`/`struct NAME` token pair.
      for (std::size_t k = i; k-- > 0;) {
        const Token& c = m.tokens[k];
        if (!is_code(c)) continue;
        if (is_ident(c, "class") || is_ident(c, "struct")) {
          const std::size_t nk = next_code(m.tokens, k);
          if (nk != std::string::npos && m.tokens[nk].kind == Tok::kIdent) {
            d.class_name = m.tokens[nk].text;
            break;
          }
        }
      }
      for (const CheckedByAnnotation& c : m.checked_by) {
        if (c.line + 3 >= d.line && c.line <= d.line)
          d.checked_by = c.function;
      }
      decls.push_back(std::move(d));
    }
  }
  return decls;
}

/// True when `fn` is anchored to real enforcement code: a library function of
/// that name whose body contains a contract check, or (fallback, matching the
/// v1 window heuristic) any library call site of `fn` with a contract check
/// within the following 40 lines.
bool function_has_contract(const Program& prog, const std::string& fn) {
  const auto it = prog.functions_by_name.find(fn);
  if (it != prog.functions_by_name.end()) {
    for (const auto& [fi, fj] : it->second) {
      const FileModel& m = prog.files[fi];
      if (!is_library_file(m.file->path)) continue;
      const FunctionDef& f = m.functions[fj];
      for (std::size_t i = f.body_begin;
           i < f.body_end && i < m.tokens.size(); ++i) {
        const Token& t = m.tokens[i];
        if (is_code(t) && t.kind == Tok::kIdent &&
            contract_calls().count(t.text) > 0 && is_call_at(m.tokens, i))
          return true;
      }
    }
  }
  for (const FileModel& m : prog.files) {
    if (!is_library_file(m.file->path)) continue;
    for (std::size_t i = 0; i < m.tokens.size(); ++i) {
      const Token& t = m.tokens[i];
      if (!is_code(t) || !is_ident(t, fn.c_str()) ||
          !is_call_at(m.tokens, i))
        continue;
      for (std::size_t j = i; j < m.tokens.size() &&
                              m.tokens[j].line <= t.line + 40;
           ++j) {
        const Token& u = m.tokens[j];
        if (is_code(u) && u.kind == Tok::kIdent &&
            contract_calls().count(u.text) > 0 && is_call_at(m.tokens, j))
          return true;
      }
    }
  }
  return false;
}

void check_traits(const Program& prog, std::vector<Finding>& out) {
  constexpr const char* kRule = "trait-audit";
  const FileModel* factory = nullptr;
  for (const FileModel& m : prog.files)
    if (ends_with_path(m.file->path, "src/policies/factory.cpp")) factory = &m;
  for (const TraitDecl& d : collect_trait_decls(prog)) {
    const FileModel& m = prog.files[d.file];
    if (d.class_name.empty()) {
      add(out, m, d.line, kRule,
          "trait " + d.trait + " declared outside a recognizable class");
      continue;
    }
    const std::string who = d.class_name + "::" + d.trait;
    if (d.checked_by.empty()) {
      add(out, m, d.line, kRule,
          who + " has no GCLINT-TRAIT-CHECKED-BY annotation — name the "
                "function whose contract check enforces the claim");
    } else if (!function_has_contract(prog, d.checked_by)) {
      add(out, m, d.line, kRule,
          who + " claims to be checked by '" + d.checked_by +
              "', but no library function of that name contains a GC_HOT_*/"
              "GC_* contract check");
    }
    if (factory == nullptr) {
      add(out, m, d.line, kRule,
          who + ": src/policies/factory.cpp not in the scanned file set, "
                "cannot verify factory registration");
    } else {
      bool in_factory = false;
      for (const Token& t : factory->tokens)
        if (is_code(t) && is_ident(t, d.class_name.c_str())) {
          in_factory = true;
          break;
        }
      if (!in_factory)
        add(out, m, d.line, kRule,
            who + ": class is not registered in policies/factory.cpp — "
                  "opt-in traits are only exercised through the factory's "
                  "devirtualized engines");
    }
  }
}

// ---- rule: factory registration ---------------------------------------------

/// String literals compared with `==` inside a function body (the factory's
/// dispatch pattern `if (spec == "item-lru") ...`).
std::set<std::string> compared_specs(const FileModel& m,
                                     const FunctionDef& f) {
  std::set<std::string> specs;
  for (std::size_t i = f.body_begin + 1;
       i < f.body_end && i < m.tokens.size(); ++i) {
    const Token& t = m.tokens[i];
    if (t.kind != Tok::kString || t.in_directive) continue;
    for (std::size_t p = i; p-- > f.body_begin;) {
      if (m.tokens[p].kind == Tok::kComment) continue;
      if (is_punct(m.tokens[p], "==")) specs.insert(t.text);
      break;
    }
  }
  return specs;
}

/// Every string literal inside a function body (known_policy_names' table).
std::set<std::string> all_specs(const FileModel& m, const FunctionDef& f) {
  std::set<std::string> specs;
  for (std::size_t i = f.body_begin;
       i < f.body_end && i < m.tokens.size(); ++i)
    if (m.tokens[i].kind == Tok::kString && !m.tokens[i].in_directive)
      specs.insert(m.tokens[i].text);
  return specs;
}

void report_spec_diff(const FileModel& m, std::size_t anchor,
                      const std::set<std::string>& expected,
                      const std::set<std::string>& actual,
                      const std::string& expected_name,
                      const std::string& actual_name,
                      std::vector<Finding>& out) {
  for (const std::string& spec : expected)
    if (actual.find(spec) == actual.end())
      add(out, m, anchor, "factory-registration",
          "policy spec \"" + spec + "\" is handled by " + expected_name +
              " but missing from " + actual_name +
              " — every spec table of the factory must agree");
}

void check_factory(const Program& prog, std::vector<Finding>& out) {
  constexpr const char* kRule = "factory-registration";
  const FileModel* factory = nullptr;
  for (const FileModel& m : prog.files)
    if (ends_with_path(m.file->path, "src/policies/factory.cpp")) factory = &m;
  if (factory == nullptr) return;  // audited by check_traits when traits exist
  const FileModel& m = *factory;

  const auto find_fn = [&](const char* name) -> const FunctionDef* {
    for (const FunctionDef& f : m.functions)
      if (f.name == name) return &f;
    return nullptr;
  };
  const FunctionDef* f_make = find_fn("make_policy");
  const FunctionDef* f_fast = find_fn("simulate_fast_spec");
  const FunctionDef* f_known = find_fn("known_policy_names");
  if (f_make == nullptr || f_fast == nullptr || f_known == nullptr) {
    add(out, m, 1, kRule,
        "could not locate the factory's spec tables (make_policy / "
        "simulate_fast_spec / known_policy_names) — update gclint's anchors "
        "if the factory was restructured");
    return;
  }

  const std::set<std::string> make_specs = compared_specs(m, *f_make);
  const std::set<std::string> fast_specs = compared_specs(m, *f_fast);
  const std::set<std::string> known_specs = all_specs(m, *f_known);

  report_spec_diff(m, f_make->line, make_specs, fast_specs, "make_policy",
                   "simulate_fast_spec", out);
  report_spec_diff(m, f_make->line, make_specs, known_specs, "make_policy",
                   "known_policy_names", out);
  report_spec_diff(m, f_known->line, known_specs, make_specs,
                   "known_policy_names", "make_policy", out);

  // The differential suites must enumerate the factory rather than hard-code
  // a spec list that silently goes stale.
  bool diff_test_enumerates = false;
  bool saw_diff_test = false;
  for (const FileModel& t : prog.files) {
    if (!is_test_file(t.file->path)) continue;
    if (t.file->path.find("fast_sim") == std::string::npos &&
        t.file->path.find("sweep_batched") == std::string::npos)
      continue;
    saw_diff_test = true;
    for (const Token& tk : t.tokens)
      if (is_code(tk) && is_ident(tk, "known_policy_names")) {
        diff_test_enumerates = true;
        break;
      }
  }
  if (saw_diff_test && !diff_test_enumerates)
    add(out, m, f_known->line, kRule,
        "no differential test (tests/*fast_sim*, tests/*sweep_batched*) "
        "enumerates known_policy_names() — new factory policies would not be "
        "differentially tested");
}

// ---- rules: rng-discipline / no-cout ----------------------------------------

void check_library_hygiene(const FileModel& m, std::vector<Finding>& out) {
  const std::string& path = m.file->path;
  if (!is_library_file(path)) return;
  const bool is_rng_home = ends_with_path(path, "src/util/rng.hpp");
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
               "non-suppressible since the async MSHR fill path removed the "
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
      {"hot-region-raw-obs",
       "No direct obs:: use inside a hot region; hot regions carry no "
       "telemetry, so record per task or per run, outside the region."},
      {"hot-region-raw-lock",
       "No raw mutex/lock_guard/condition_variable primitives inside a hot "
       "region; per-access locking goes through src/gcached/shard_lock.hpp."},
      {"hot-region-blocking",
       "No sleep_for/sleep_until/yield or atomic wait/notify calls inside a "
       "hot region outside shard_lock.hpp."},
      {"hot-region-raw-clock",
       "No clock reads (steady_clock/system_clock/clock_gettime/rdtsc "
       "variants) inside a hot region outside shard_lock.hpp; timing "
       "belongs to the monitoring layer."},
      {"lock-discipline",
       "While a ShardGuard/ShardHold is live: no blocking calls, no "
       "file I/O, no allocation or container growth, no second shard guard "
       "(deadlock risk). Non-suppressible — no blocking under a guard, "
       "period; fills go through the MSHR release/re-acquire protocol."},
      {"hot-region-transitive",
       "Allocation/throw/raw-obs/raw-lock bans follow the call graph: they "
       "apply to every function reachable from a hot-region call site."},
      {"layering",
       "The src/ include graph must respect the layer DAG declared in "
       "tools/gclint/layers.txt: no back-edges, no undeclared directories, "
       "no include cycles."},
      {"trait-audit",
       "Opt-in policy traits must carry GCLINT-TRAIT-CHECKED-BY naming a "
       "library function that contract-checks the claim, and the class must "
       "be registered in the factory."},
      {"factory-registration",
       "The factory's spec tables must agree and the differential tests "
       "must enumerate known_policy_names()."},
      {"rng-discipline",
       "No raw RNG primitives outside util/rng.hpp; all randomness flows "
       "through the seeded SplitMix64."},
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
  check_traits(prog, out);
  check_factory(prog, out);
  check_transitive(prog, out);
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
