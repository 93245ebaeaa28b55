// gclint's lightweight semantic layer on top of the lexer (lexer.hpp):
// per-file function extraction, an intra-repo call graph, the quoted
// #include graph, hot-region extents, and the GCLINT-ALLOW annotations.
//
// This is a linter's model, not a compiler's: functions are recognized by
// the token shape `name ( ... ) { ... }` at namespace/class scope, calls by
// `name (` inside a body, and the call graph links by UNQUALIFIED name
// (policies are duck-typed against fast_step, so overload sets collapsing
// into one node is the useful behavior, at the price of over-linking
// same-named methods of unrelated classes). Known limits are documented in docs/ANALYSIS.md;
// rules built on this layer err toward traversing too much, and every
// finding can be suppressed at its site with GCLINT-ALLOW.
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "lexer.hpp"

namespace gclint {

/// One input file, repo-relative path with forward slashes (classification
/// keys off "src/", "src/policies/", "tests/" segments).
struct SourceFile {
  std::string path;
  std::string content;
};

/// One extracted function (or constructor/destructor/operator) definition.
struct FunctionDef {
  std::string name;        ///< unqualified name ("~X" for destructors)
  std::string class_name;  ///< enclosing or qualifying class, or empty
  std::size_t line = 0;    ///< 1-based line of the name token
  std::size_t body_begin = 0;  ///< token index of the opening '{'
  std::size_t body_end = 0;    ///< token index one past the matching '}'
};

/// One call site inside a function body.
struct CallSite {
  std::string callee;  ///< unqualified callee name
  std::size_t line = 0;
};

/// A GC_HOT_REGION_BEGIN/END pair (or an unbalanced marker; the balance
/// rule reports those from the raw marker list below).
struct HotRegion {
  std::string label;
  std::size_t begin_line = 0;  ///< line of the BEGIN marker
  std::size_t end_line = 0;    ///< line of the END marker (0 = unclosed)
};

/// One raw region marker, in file order (for the balance rule).
struct RegionMarker {
  bool begin = false;
  std::string label;
  std::size_t line = 0;
};

/// One `GCLINT-ALLOW(rule[, rule...]): reason` annotation.
struct AllowAnnotation {
  std::size_t line = 0;
  std::vector<std::string> rules;
  std::string reason;  ///< trimmed; empty when the colon/reason is missing
};

/// Everything the rules need to know about one file.
struct FileModel {
  const SourceFile* file = nullptr;
  std::vector<Token> tokens;
  std::vector<FunctionDef> functions;
  /// Call sites per function, parallel to `functions`.
  std::vector<std::vector<CallSite>> calls;
  std::vector<HotRegion> regions;
  std::vector<RegionMarker> markers;
  std::vector<std::string> includes;  ///< quoted #include targets, in order
  std::vector<std::size_t> include_lines;  ///< parallel to `includes`
  std::vector<AllowAnnotation> allows;
  /// Lines that hold comment tokens and nothing else. A GCLINT-ALLOW may be
  /// separated from the code it vouches for by the rest of its own comment
  /// block; suppression bridges these lines (and only these — a blank line
  /// or a code line breaks the chain).
  std::set<std::size_t> comment_only_lines;

  /// True when 1-based `line` lies inside a hot region (markers excluded —
  /// the marker lines themselves are region boundaries, not contents).
  bool in_hot_region(std::size_t line) const;
  /// Label of the region covering `line` ("" when none).
  const HotRegion* region_of(std::size_t line) const;
  /// True when a finding of `rule` on `line` carries a GCLINT-ALLOW on the
  /// same line, the preceding line, or earlier in the contiguous comment
  /// block directly above the line.
  bool allowed(std::size_t line, const std::string& rule) const;
};

/// Lexes and analyzes one file.
FileModel analyze(const SourceFile& file);

/// Whole-program view: name -> indexes of FunctionDefs across files, plus
/// the models themselves (parallel to the input file list).
struct Program {
  std::vector<FileModel> files;
  /// Unqualified function name -> (file index, function index) pairs.
  std::map<std::string, std::vector<std::pair<std::size_t, std::size_t>>>
      functions_by_name;
};

Program analyze_all(const std::vector<SourceFile>& files);

// ---- shared path helpers (used by the rules and the CLI) -------------------

bool path_has_prefix(const std::string& path, const std::string& prefix);
bool is_library_file(const std::string& path);
bool is_test_file(const std::string& path);
bool ends_with_path(const std::string& path, const std::string& suffix);

}  // namespace gclint
