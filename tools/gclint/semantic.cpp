#include "semantic.hpp"

#include <algorithm>

namespace gclint {

namespace {

// Keywords that look like calls (`if (`, `while (`, ...) but are not.
bool is_call_keyword(const std::string& s) {
  static const std::set<std::string> kKeywords = {
      "if",          "for",         "while",       "switch",
      "return",      "sizeof",      "alignof",     "alignas",
      "decltype",    "catch",       "new",         "delete",
      "static_assert", "noexcept",  "requires",    "typeid",
      "co_await",    "co_return",   "co_yield",    "throw",
      "assert",      "defined"};
  return kKeywords.count(s) > 0;
}

// All-caps identifiers follow the macro convention (GC_REQUIRE, TEST, ...);
// they are never extracted as function definitions, because a macro
// invocation at namespace scope followed by a function would otherwise
// swallow that function's body.
bool looks_like_macro(const std::string& s) {
  bool has_alpha = false;
  for (char c : s) {
    if (c >= 'a' && c <= 'z') return false;
    if (c >= 'A' && c <= 'Z') has_alpha = true;
  }
  return has_alpha;
}

bool is_body_qualifier(const std::string& s) {
  static const std::set<std::string> kQual = {
      "const", "noexcept", "override", "final", "mutable", "try", "volatile",
      "requires"};
  return kQual.count(s) > 0;
}

/// Trims ASCII whitespace.
std::string trimmed(const std::string& s) {
  const auto b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return "";
  const auto e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

/// Scans a comment's text for GCLINT-ALLOW annotations; `base_line` is the
/// comment token's first line (annotations inside multi-line block comments
/// get the line they actually sit on).
void scan_comment(const std::string& text, std::size_t base_line,
                  FileModel& m) {
  std::size_t search = 0;
  while (true) {
    const auto pos = text.find("GCLINT-ALLOW(", search);
    if (pos == std::string::npos) break;
    AllowAnnotation a;
    a.line =
        base_line + static_cast<std::size_t>(
                        std::count(text.begin(), text.begin() + static_cast<std::ptrdiff_t>(pos), '\n'));
    const auto close = text.find(')', pos);
    if (close == std::string::npos) break;
    // Comma-separated rule list: one annotation may cover several rules
    // that fire on the same line (e.g. hot-path and
    // hot-region-cold-contract).
    std::string rules = text.substr(pos + 13, close - pos - 13);
    std::size_t start = 0;
    while (start <= rules.size()) {
      auto comma = rules.find(',', start);
      if (comma == std::string::npos) comma = rules.size();
      const std::string r = trimmed(rules.substr(start, comma - start));
      if (!r.empty()) a.rules.push_back(r);
      start = comma + 1;
    }
    // Reason: everything after a ':' following the ')', to end of line.
    std::size_t rp = close + 1;
    while (rp < text.size() && (text[rp] == ' ' || text[rp] == '\t')) ++rp;
    if (rp < text.size() && text[rp] == ':') {
      auto eol = text.find('\n', rp);
      if (eol == std::string::npos) eol = text.size();
      std::string reason = text.substr(rp + 1, eol - rp - 1);
      // A block comment's closing delimiter is not part of the reason.
      const auto cd = reason.find("*/");
      if (cd != std::string::npos) reason = reason.substr(0, cd);
      a.reason = trimmed(reason);
    }
    m.allows.push_back(std::move(a));
    search = close;
  }
}

/// The token-walk state for function extraction.
struct Scope {
  enum Kind { kNamespace, kClass, kFunction, kOther } kind = kOther;
  std::string class_name;          // kClass only
  std::size_t function_index = 0;  // kFunction only
};

}  // namespace

bool FileModel::in_hot_region(std::size_t line) const {
  return region_of(line) != nullptr;
}

const HotRegion* FileModel::region_of(std::size_t line) const {
  for (const HotRegion& r : regions) {
    if (line > r.begin_line && (r.end_line == 0 || line < r.end_line))
      return &r;
  }
  return nullptr;
}

bool FileModel::allowed(std::size_t line, const std::string& rule) const {
  for (const AllowAnnotation& a : allows) {
    if (a.line > line) continue;
    bool reaches = a.line == line || a.line + 1 == line;
    if (!reaches && a.line < line) {
      // Bridge the rest of the annotation's comment block: every line
      // strictly between must be comment-only.
      reaches = true;
      for (std::size_t l = a.line + 1; l < line; ++l)
        if (comment_only_lines.count(l) == 0) {
          reaches = false;
          break;
        }
    }
    if (!reaches) continue;
    for (const std::string& r : a.rules)
      if (r == rule) return true;
  }
  return false;
}

FileModel analyze(const SourceFile& file) {
  FileModel m;
  m.file = &file;
  m.tokens = lex(file.content);

  // Annotations live in comments; everything else ignores comment tokens.
  for (const Token& t : m.tokens)
    if (t.kind == Tok::kComment) scan_comment(t.text, t.line, m);

  // Comment-only lines (for ALLOW suppression bridging): lines spanned by a
  // comment token and touched by nothing else.
  {
    std::set<std::size_t> commented;
    std::set<std::size_t> coded;
    for (const Token& t : m.tokens) {
      if (t.kind == Tok::kComment) {
        const std::size_t span = static_cast<std::size_t>(
            std::count(t.text.begin(), t.text.end(), '\n'));
        for (std::size_t l = t.line; l <= t.line + span; ++l)
          commented.insert(l);
      } else {
        coded.insert(t.line);
      }
    }
    for (std::size_t l : commented)
      if (coded.count(l) == 0) m.comment_only_lines.insert(l);
  }

  // Code view: indexes of tokens that participate in code structure.
  std::vector<std::size_t> code;
  code.reserve(m.tokens.size());
  for (std::size_t i = 0; i < m.tokens.size(); ++i) {
    const Token& t = m.tokens[i];
    if (t.kind == Tok::kComment) continue;
    if (t.in_directive) {
      // Include-graph extraction is the one thing read off directives.
      if (t.kind == Tok::kPpDirective && t.text == "include" &&
          i + 1 < m.tokens.size() &&
          m.tokens[i + 1].kind == Tok::kString) {
        m.includes.push_back(m.tokens[i + 1].text);
        m.include_lines.push_back(t.line);
      }
      continue;
    }
    code.push_back(i);
  }

  const auto tok = [&](std::size_t ci) -> const Token& {
    return m.tokens[code[ci]];
  };
  const std::size_t n = code.size();

  // Hot-region markers.
  for (std::size_t ci = 0; ci + 3 < n; ++ci) {
    const Token& t = tok(ci);
    if (t.kind != Tok::kIdent ||
        (t.text != "GC_HOT_REGION_BEGIN" && t.text != "GC_HOT_REGION_END"))
      continue;
    if (!is_punct(tok(ci + 1), "(") || tok(ci + 2).kind != Tok::kIdent ||
        !is_punct(tok(ci + 3), ")"))
      continue;
    m.markers.push_back(
        {t.text == "GC_HOT_REGION_BEGIN", tok(ci + 2).text, t.line});
  }
  // Pair markers into regions with the v1 semantics: a BEGIN opens (nesting
  // and mismatches are the balance rule's business), any END closes.
  {
    const RegionMarker* open = nullptr;
    for (const RegionMarker& mk : m.markers) {
      if (mk.begin) {
        if (open == nullptr) open = &mk;
      } else if (open != nullptr) {
        m.regions.push_back({open->label, open->line, mk.line});
        open = nullptr;
      }
    }
    if (open != nullptr) m.regions.push_back({open->label, open->line, 0});
  }

  // ---- function extraction --------------------------------------------------
  std::vector<Scope> stack;
  std::string pending_class;   // after `class X ...`, until its '{' or ';'
  bool pending_namespace = false;
  bool pending_enum = false;

  const auto at_function_scope = [&] {
    for (const Scope& s : stack)
      if (s.kind == Scope::kFunction) return true;
    return false;
  };

  const auto enclosing_class = [&]() -> std::string {
    for (auto it = stack.rbegin(); it != stack.rend(); ++it)
      if (it->kind == Scope::kClass) return it->class_name;
    return "";
  };

  // Matches forward from the '(' at code index `ci`; returns the code index
  // one past the matching ')' (or n).
  const auto match_parens = [&](std::size_t ci) {
    int depth = 0;
    for (; ci < n; ++ci) {
      if (is_punct(tok(ci), "(")) ++depth;
      if (is_punct(tok(ci), ")") && --depth == 0) return ci + 1;
    }
    return n;
  };

  for (std::size_t ci = 0; ci < n; ++ci) {
    const Token& t = tok(ci);

    if (t.kind == Tok::kIdent) {
      if (t.text == "namespace") {
        pending_namespace = true;
        continue;
      }
      if (t.text == "enum") {
        pending_enum = true;
        continue;
      }
      if ((t.text == "class" || t.text == "struct") && !pending_enum) {
        // Capture `class [alignas(..)] Name`; forward declarations clear it
        // at the ';' below, `class` as template parameter never reaches a
        // '{' with pending_class still set because '>' clears it too.
        std::size_t j = ci + 1;
        if (j < n && is_ident(tok(j), "alignas") && j + 1 < n &&
            is_punct(tok(j + 1), "("))
          j = match_parens(j + 1);
        if (j < n && tok(j).kind == Tok::kIdent) pending_class = tok(j).text;
        continue;
      }
    }

    if (is_punct(t, ";") || is_punct(t, ">")) {
      pending_class.clear();
      pending_enum = false;
      continue;
    }

    if (is_punct(t, "{")) {
      Scope s;
      if (pending_namespace) {
        s.kind = Scope::kNamespace;
      } else if (!pending_class.empty()) {
        s.kind = Scope::kClass;
        s.class_name = pending_class;
      } else if (stack.empty() ||
                 stack.back().kind == Scope::kNamespace) {
        // A bare brace at namespace scope: initializer or extern "C" block;
        // treat as namespace-like so function extraction continues inside.
        s.kind = Scope::kNamespace;
      } else {
        s.kind = Scope::kOther;
      }
      pending_namespace = false;
      pending_class.clear();
      pending_enum = false;
      stack.push_back(s);
      continue;
    }
    if (is_punct(t, "}")) {
      if (!stack.empty()) {
        if (stack.back().kind == Scope::kFunction)
          m.functions[stack.back().function_index].body_end = code[ci] + 1;
        stack.pop_back();
      }
      continue;
    }

    // Function definition candidate: `name (` at namespace/class scope.
    if (t.kind == Tok::kIdent && !at_function_scope() && ci + 1 < n &&
        is_punct(tok(ci + 1), "(") && !is_call_keyword(t.text) &&
        !looks_like_macro(t.text) && t.text != "operator") {
      std::string name = t.text;
      std::string class_name = enclosing_class();
      // Out-of-line qualification `X::name(` / `X<T>::name(` and
      // destructors `~X(`.
      if (ci >= 1 && is_punct(tok(ci - 1), "~")) name = "~" + name;
      const std::size_t qpos = ci >= 1 && is_punct(tok(ci - 1), "~") ? ci - 1 : ci;
      if (qpos >= 2 && is_punct(tok(qpos - 1), "::")) {
        std::size_t k = qpos - 2;
        if (is_punct(tok(k), ">")) {
          int adepth = 0;
          while (k > 0) {
            if (is_punct(tok(k), ">")) ++adepth;
            if (is_punct(tok(k), "<") && --adepth == 0) {
              --k;
              break;
            }
            --k;
          }
        }
        if (tok(k).kind == Tok::kIdent) class_name = tok(k).text;
      }

      const std::size_t after = match_parens(ci + 1);
      // Scan from the parameter list's end to the body '{', a ';'
      // (declaration), or anything that rules the candidate out. Handles
      // `const noexcept override`, trailing return types, and constructor
      // member-initializer lists (incl. brace-init members).
      std::size_t j = after;
      bool in_init_list = false;
      bool found_body = false;
      while (j < n) {
        const Token& u = tok(j);
        if (is_punct(u, ";") || is_punct(u, "=")) break;  // decl / =default
        if (is_punct(u, "(")) {
          j = match_parens(j);
          continue;
        }
        if (is_punct(u, "{")) {
          // Brace-init of a member (`: v_{..}`) directly follows an
          // identifier; the function body follows ')', '}', a qualifier,
          // ':' (empty init list is impossible), or '>' of a trailing
          // return type.
          const Token& prev = tok(j - 1);
          const bool brace_init =
              in_init_list && prev.kind == Tok::kIdent &&
              !is_body_qualifier(prev.text);
          if (brace_init) {
            int bd = 0;
            while (j < n) {
              if (is_punct(tok(j), "{")) ++bd;
              if (is_punct(tok(j), "}") && --bd == 0) break;
              ++j;
            }
            ++j;
            continue;
          }
          found_body = true;
          break;
        }
        if (is_punct(u, ":")) {
          in_init_list = true;
          ++j;
          continue;
        }
        if (u.kind == Tok::kIdent || u.kind == Tok::kNumber ||
            u.kind == Tok::kString || u.kind == Tok::kCharLit ||
            u.kind == Tok::kPunct) {
          ++j;
          continue;
        }
        break;
      }
      if (found_body) {
        FunctionDef f;
        f.name = std::move(name);
        f.class_name = std::move(class_name);
        f.line = t.line;
        f.body_begin = code[j];
        m.functions.push_back(std::move(f));
        m.calls.emplace_back();
        Scope s;
        s.kind = Scope::kFunction;
        s.function_index = m.functions.size() - 1;
        // Jump to the body '{' so init-list parens are never re-scanned.
        stack.push_back(s);
        ci = j;  // the '{' itself; scope already pushed, so skip its handler
        continue;
      }
    }
  }
  // Unterminated bodies (broken file): close at EOF.
  for (FunctionDef& f : m.functions)
    if (f.body_end == 0) f.body_end = m.tokens.size();

  // ---- call extraction ------------------------------------------------------
  for (std::size_t fi = 0; fi < m.functions.size(); ++fi) {
    const FunctionDef& f = m.functions[fi];
    for (std::size_t i = f.body_begin; i + 1 < f.body_end; ++i) {
      const Token& t = m.tokens[i];
      if (t.kind != Tok::kIdent || t.in_directive) continue;
      if (is_call_keyword(t.text)) continue;
      // Next code token must be '('.
      std::size_t j = i + 1;
      while (j < f.body_end && m.tokens[j].kind == Tok::kComment) ++j;
      if (j >= f.body_end || !is_punct(m.tokens[j], "(")) continue;
      m.calls[fi].push_back({t.text, t.line});
    }
  }

  return m;
}

Program analyze_all(const std::vector<SourceFile>& files) {
  Program p;
  p.files.reserve(files.size());
  for (const SourceFile& f : files) p.files.push_back(analyze(f));
  for (std::size_t i = 0; i < p.files.size(); ++i)
    for (std::size_t j = 0; j < p.files[i].functions.size(); ++j)
      p.functions_by_name[p.files[i].functions[j].name].push_back({i, j});
  return p;
}

// ---- path helpers -----------------------------------------------------------

bool path_has_prefix(const std::string& path, const std::string& prefix) {
  if (path.rfind(prefix, 0) == 0) return true;
  return path.find("/" + prefix) != std::string::npos;
}

bool is_library_file(const std::string& path) {
  return path_has_prefix(path, "src/");
}

bool is_test_file(const std::string& path) {
  return path_has_prefix(path, "tests/");
}

bool ends_with_path(const std::string& path, const std::string& suffix) {
  return path.size() >= suffix.size() &&
         path.compare(path.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace gclint
