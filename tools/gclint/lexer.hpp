// gclint's hand-rolled C++ lexer.
//
// gclint v1 matched rules against a regex-style comment/string stripper; it
// had no notion of tokens, desynchronized on encoding-prefixed raw string
// literals (`u8R"(...)"` containing a quote mis-stripped the rest of the
// file) and lost line numbers on line splices inside string literals. v2
// lexes properly: every rule now runs over a token stream in which each
// token carries its 1-based line and column in the ORIGINAL file, so
// findings stay anchored even through splices, raw strings, and macros.
//
// Coverage (what the rules need, not a full phase-3 translator):
//   * line splices: `\` immediately followed by a newline (or CRLF) joins
//     logical lines everywhere except inside raw string literals, exactly
//     like translation phase 2; line counters keep counting physical lines;
//   * comments: `//` (spliced continuations included) and `/* */`, emitted
//     as kComment tokens because the GCLINT-ALLOW annotations live in
//     them;
//   * string literals with escapes, char literals with escapes, and raw
//     string literals with arbitrary delimiters and any of the encoding
//     prefixes (R, LR, uR, UR, u8R); the token text is the literal's content
//     without delimiters;
//   * pp-numbers including digit separators (`1'000'000`) and exponent
//     signs, so a separator never opens a phantom char literal;
//   * preprocessor directives: a `#` first-on-line opens a directive; the
//     directive name is emitted as kPpDirective and every token up to the
//     (unspliced) end of line is flagged `in_directive`, so brace matching
//     and call extraction can skip macro bodies while the include-graph
//     extractor can still read `#include "..."` targets;
//   * identifiers and punctuators (maximal munch for the multi-char ones
//     the rules care about: `::`).
//
// The lexer never throws: unterminated literals/comments run to EOF, which
// is the most useful behavior for a linter that must keep scanning a tree
// containing a broken file.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace gclint {

enum class Tok : unsigned char {
  kIdent,        ///< identifier or keyword (rules key off spellings)
  kNumber,       ///< pp-number, separators and exponents included
  kString,       ///< "..." or prefixed u8"..." etc.; text = content
  kRawString,    ///< R"delim(...)delim" incl. prefixes; text = content
  kCharLit,      ///< '...' incl. prefixes; text = content
  kPunct,        ///< one punctuator; `::` is a single token
  kComment,      ///< // or /* */, full text including the delimiters
  kPpDirective,  ///< the directive name after a first-on-line '#'
};

struct Token {
  Tok kind = Tok::kPunct;
  std::string text;
  std::size_t line = 0;       ///< 1-based physical line of the first char
  std::size_t col = 0;        ///< 1-based column on that line
  bool in_directive = false;  ///< token lies on a preprocessor directive
};

/// Lexes `src` into tokens. Total: every character of the input is part of
/// exactly one token, whitespace, or a splice.
std::vector<Token> lex(const std::string& src);

/// True when `t` spells an identifier equal to `name` (and is not a comment
/// or literal that merely contains it).
inline bool is_ident(const Token& t, const char* name) {
  return t.kind == Tok::kIdent && t.text == name;
}

inline bool is_punct(const Token& t, const char* p) {
  return t.kind == Tok::kPunct && t.text == p;
}

}  // namespace gclint
