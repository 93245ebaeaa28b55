// The one rule for turning text into a number. Every reader of numbers
// that arrive as text — policy-spec keys, gcsim and bench flags, gcworkload
// headers and ids, address traces, the obs readers — calls parse_number, so
// they all accept and refuse the same inputs (docs/FORMATS.md).
#pragma once

#include <charconv>
#include <cmath>
#include <optional>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

#include "util/contracts.hpp"

namespace gcaching {

/// Parses all of `text` as a T with std::from_chars, or returns nullopt. It
/// refuses an empty token, anything left unconsumed (leading space, a '+',
/// trailing text), a sign on an unsigned T, a value out of range for T, and
/// a double that is not finite (inf, nan, 1e999). `base` applies to integer
/// types; a double is always decimal.
template <typename T>
std::optional<T> parse_number(std::string_view text, int base = 10) {
  static_assert(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>);
  T value{};
  const char* const last = text.data() + text.size();
  std::from_chars_result r{};
  if constexpr (std::is_floating_point_v<T>) {
    GC_REQUIRE(base == 10, "parse_number reads doubles in base 10 only");
    r = std::from_chars(text.data(), last, value);
    if (!std::isfinite(value)) return std::nullopt;
  } else {
    r = std::from_chars(text.data(), last, value, base);
  }
  if (r.ec != std::errc() || r.ptr != last) return std::nullopt;
  return value;
}

/// Splits `text` at every `sep`, keeping empty tokens, so that a list such
/// as `64,,128` or `64,` hands its empty token to parse_number, which
/// refuses it.
inline std::vector<std::string_view> split_list(std::string_view text,
                                                char sep = ',') {
  std::vector<std::string_view> out;
  for (std::size_t start = 0;;) {
    const std::size_t end = text.find(sep, start);
    out.push_back(text.substr(start, end - start));
    if (end == std::string_view::npos) return out;
    start = end + 1;
  }
}

}  // namespace gcaching
