// Shared scaffolding for the reproduction benches.
//
// Every bench binary:
//   * prints its table/figure as aligned text (the paper's rows/series);
//   * accepts `--csv <dir>` to additionally emit machine-readable CSVs;
//   * accepts `--quick` to shrink empirical sections for smoke runs.
#pragma once

#include <cstdio>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include <unistd.h>

#include "util/csv.hpp"
#include "util/table.hpp"

namespace gcaching::bench {

struct BenchOptions {
  std::optional<std::string> csv_dir;
  bool quick = false;
};

inline BenchOptions parse_args(int argc, char** argv) {
  BenchOptions opts;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg == "--csv" && a + 1 < argc) {
      opts.csv_dir = argv[++a];
    } else if (arg == "--quick") {
      opts.quick = true;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: " << argv[0] << " [--csv DIR] [--quick]\n";
      std::exit(0);
    }
  }
  return opts;
}

/// Emits a finished table to stdout and, when requested, to CSV.
class TableSink {
 public:
  TableSink(const BenchOptions& opts, const std::string& title,
            const std::string& csv_name, std::vector<std::string> headers)
      : title_(title), table_(headers) {
    if (opts.csv_dir)
      csv_.emplace(*opts.csv_dir + "/" + csv_name + ".csv", headers);
  }

  void add_row(const std::vector<std::string>& cells) {
    table_.add_row(cells);
    if (csv_) csv_->add_row(cells);
  }

  void add_separator() { table_.add_separator(); }

  void flush() {
    std::cout << "== " << title_ << " ==\n" << table_ << "\n";
  }

 private:
  std::string title_;
  TextTable table_;
  std::optional<CsvWriter> csv_;
};

inline std::string fmt(double v, int precision = 3) {
  return TextTable::fmt(v, precision);
}
inline std::string fmtr(double v) { return TextTable::fmt_ratio(v); }
inline std::string fmti(std::uint64_t v) { return TextTable::fmt_int(v); }

// ---- Result provenance ------------------------------------------------------
// Committed bench JSONs are only comparable against baselines from the same
// commit and machine; PR 6's item-lfu baseline went stale silently because
// nothing recorded where its numbers came from. Every JSON writer stamps
// these two fields, and `--compare` warns loudly on a missing or mismatched
// stamp (see warn_if_stale_baseline).

/// First output line of `cmd`, trimmed; "unknown" when the command fails or
/// prints nothing.
inline std::string first_line_of_command(const char* cmd) {
  FILE* pipe = ::popen(cmd, "r");
  if (pipe == nullptr) return "unknown";
  char buf[256] = {0};
  const bool got = std::fgets(buf, sizeof(buf), pipe) != nullptr;
  ::pclose(pipe);
  if (!got) return "unknown";
  std::string line(buf);
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r'))
    line.pop_back();
  return line.empty() ? "unknown" : line;
}

/// Marks a commit stamp taken from a working tree that differs from it.
inline constexpr std::string_view kDirtySuffix = "-dirty";

/// Short git commit of the working tree the bench binary runs in, with
/// kDirtySuffix when a tracked file other than the BENCH_*.json outputs
/// differs from HEAD: that run measured code no commit holds. The outputs
/// are left out so that regenerating one in place does not mark itself.
inline std::string current_git_commit() {
  const std::string head =
      first_line_of_command("git rev-parse --short HEAD 2>/dev/null");
  if (head == "unknown") return head;
  const bool dirty =
      first_line_of_command(
          "git diff --quiet HEAD -- ':(top)' ':(top,exclude)BENCH_*.json' "
          "2>/dev/null || echo dirty") == "dirty";
  return dirty ? head + std::string(kDirtySuffix) : head;
}

/// Host identity for cross-machine staleness detection.
inline std::string machine_name() {
  char buf[256] = {0};
  if (::gethostname(buf, sizeof(buf) - 1) != 0 || buf[0] == '\0')
    return "unknown";
  return buf;
}

/// The provenance lines of a bench JSON, each ending in a comma: its
/// `"git_commit"` and `"machine"` stamps.
inline std::string provenance_json_lines() {
  return "  \"git_commit\": \"" + current_git_commit() + "\",\n" +
         "  \"machine\": \"" + machine_name() + "\",\n";
}

/// Pulls `"key": "value"` out of one serialized result line. The benches'
/// JSON writers emit one cell per line, so `--compare` readers can scan
/// line-oriented instead of carrying a JSON parser.
inline std::optional<std::string> json_line_string(const std::string& line,
                                                   const std::string& key) {
  const std::string needle = "\"" + key + "\": \"";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return std::nullopt;
  const std::size_t begin = at + needle.size();
  const std::size_t end = line.find('"', begin);
  if (end == std::string::npos) return std::nullopt;
  return line.substr(begin, end - begin);
}

/// Pulls `"key": number` out of one serialized result line.
inline std::optional<double> json_line_number(const std::string& line,
                                              const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return std::nullopt;
  return std::stod(line.substr(at + needle.size()));
}

/// Why a --compare baseline stamped (`baseline_commit`, `baseline_machine`)
/// may not be comparable with a run stamped (`commit`, `machine`); empty
/// when it is. A dirty baseline is always suspect, even at the current
/// hash: no commit holds the code it measured.
inline std::vector<std::string> baseline_problems(
    const std::string& baseline_commit, const std::string& baseline_machine,
    const std::string& commit, const std::string& machine) {
  if (baseline_commit.empty() || baseline_machine.empty())
    return {"baseline has no git_commit/machine stamp (predates provenance "
            "stamping) — it may be arbitrarily stale"};
  std::vector<std::string> problems;
  if (baseline_commit.ends_with(kDirtySuffix))
    problems.push_back("baseline commit " + baseline_commit +
                       " was measured with uncommitted changes");
  if (baseline_commit != commit)
    problems.push_back("baseline commit " + baseline_commit + " != current " +
                       commit);
  if (baseline_machine != machine)
    problems.push_back("baseline machine " + baseline_machine +
                       " != current " + machine);
  return problems;
}

/// Loud stderr banner when a --compare baseline has no provenance stamp or
/// was measured elsewhere/elsewhen (baseline_problems). Ratios against such
/// a baseline can reflect machine or commit drift rather than the change
/// under test.
inline void warn_if_stale_baseline(const std::string& path,
                                   const std::string& baseline_commit,
                                   const std::string& baseline_machine) {
  const std::vector<std::string> problems = baseline_problems(
      baseline_commit, baseline_machine, current_git_commit(), machine_name());
  if (problems.empty()) return;
  std::cerr << "\n"
            << "=========================== WARNING ==========================="
            << "\n"
            << "stale baseline suspected for --compare " << path << ":\n";
  for (const std::string& p : problems) std::cerr << "  * " << p << "\n";
  std::cerr << "ratios below may measure machine/commit drift, not your "
               "change;\nregenerate the baseline on this machine at the "
               "pre-change commit.\n"
            << "==============================================================="
            << "\n\n";
}

}  // namespace gcaching::bench
