#include "util/table.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <string_view>

#include "util/contracts.hpp"
#include "util/parse.hpp"

namespace gcaching {

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  GC_REQUIRE(!headers_.empty(), "table needs at least one column");
}

void TextTable::add_row(std::vector<std::string> cells) {
  GC_REQUIRE(cells.size() == headers_.size(),
             "row width must match header width");
  rows_.push_back(Row{false, std::move(cells)});
}

void TextTable::add_separator() { rows_.push_back(Row{true, {}}); }

namespace {

/// A number, with a sign and trailing unit-ish suffixes like "x" or "%"
/// allowed; fmt's "inf", "-inf" and "nan" count too.
bool looks_numeric(std::string_view s) {
  s = s.substr(0, s.find_last_not_of("x% ") + 1);
  if (s.starts_with('+') || s.starts_with('-')) s.remove_prefix(1);
  return s == "inf" || s == "nan" || parse_number<double>(s).has_value();
}

}  // namespace

std::string TextTable::render() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c)
    widths[c] = headers_[c].size();
  for (const Row& r : rows_) {
    if (r.separator) continue;
    for (std::size_t c = 0; c < r.cells.size(); ++c)
      widths[c] = std::max(widths[c], r.cells[c].size());
  }

  std::ostringstream os;
  auto emit_row = [&](const std::vector<std::string>& cells, bool header) {
    os << '|';
    for (std::size_t c = 0; c < cells.size(); ++c) {
      const bool right = !header && looks_numeric(cells[c]);
      os << ' ';
      if (right)
        os << std::setw(static_cast<int>(widths[c])) << std::right << cells[c];
      else
        os << std::setw(static_cast<int>(widths[c])) << std::left << cells[c];
      os << " |";
    }
    os << '\n';
  };
  auto emit_sep = [&] {
    os << '+';
    for (std::size_t w : widths) os << std::string(w + 2, '-') << '+';
    os << '\n';
  };

  emit_sep();
  emit_row(headers_, /*header=*/true);
  emit_sep();
  for (const Row& r : rows_) {
    if (r.separator)
      emit_sep();
    else
      emit_row(r.cells, /*header=*/false);
  }
  emit_sep();
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const TextTable& t) {
  return os << t.render();
}

std::string TextTable::fmt(double v, int precision) {
  std::ostringstream os;
  if (std::isinf(v)) return v > 0 ? "inf" : "-inf";
  if (std::isnan(v)) return "nan";
  os << std::setprecision(precision) << std::fixed << v;
  return os.str();
}

std::string TextTable::fmt_ratio(double v) {
  if (std::isinf(v)) return "inf";
  if (std::isnan(v)) return "nan";
  std::ostringstream os;
  if (v >= 100.0)
    os << std::setprecision(1) << std::fixed << v;
  else
    os << std::setprecision(3) << std::fixed << v;
  return os.str();
}

std::string TextTable::fmt_int(std::uint64_t v) { return std::to_string(v); }

}  // namespace gcaching
