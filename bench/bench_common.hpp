// Shared scaffolding for the reproduction benches.
//
// Every bench binary:
//   * prints its table/figure as aligned text (the paper's rows/series);
//   * accepts `--csv <dir>` to additionally emit machine-readable CSVs;
//   * accepts `--quick` to shrink empirical sections for smoke runs.
#pragma once

#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include <unistd.h>

#include "util/csv.hpp"
#include "util/parse.hpp"
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

/// Parses one numeric flag value with the shared rule of util/parse.hpp; a
/// value it refuses exits 2 naming the flag.
template <typename T>
T flag_number(std::string_view flag, std::string_view raw) {
  if (const std::optional<T> v = parse_number<T>(raw)) return *v;
  std::cerr << "invalid value for " << flag << ": '" << raw << "'\n";
  std::exit(2);
}

inline std::string fmt(double v, int precision = 3) {
  return TextTable::fmt(v, precision);
}
inline std::string fmtr(double v) { return TextTable::fmt_ratio(v); }
inline std::string fmti(std::uint64_t v) { return TextTable::fmt_int(v); }

// ---- Result provenance ------------------------------------------------------
// Committed bench JSONs are only comparable against baselines from the same
// commit and machine; PR 6's item-lfu baseline went stale silently because
// nothing recorded where its numbers came from. Every JSON writer stamps
// the commit, the machine and the host's transparent-huge-page mode, and
// `--compare` warns loudly on a missing or mismatched stamp (see
// warn_if_stale_baseline).

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

/// The bracketed word of a THP mode line such as "always [madvise] never",
/// or "unknown" when there is none.
inline std::string thp_mode_of(std::string_view line) {
  const std::size_t open = line.find('[');
  const std::size_t close = line.find(']', open);
  if (open == std::string_view::npos || close == std::string_view::npos ||
      close == open + 1)
    return "unknown";
  return std::string(line.substr(open + 1, close - open - 1));
}

/// The host's transparent-huge-page mode (always, madvise or never), on
/// which the speed of a trace load depends; "unknown" off Linux.
inline std::string thp_mode() {
  std::ifstream in("/sys/kernel/mm/transparent_hugepage/enabled");
  std::string line;
  std::getline(in, line);
  return thp_mode_of(line);
}

/// Where and from what a bench JSON was measured. An empty field is a
/// stamp the JSON does not carry.
struct Provenance {
  std::string git_commit;
  std::string machine;
  std::string thp;
};

inline Provenance current_provenance() {
  return {current_git_commit(), machine_name(), thp_mode()};
}

/// The provenance lines of a bench JSON, each ending in a comma: its
/// `"git_commit"`, `"machine"` and `"thp"` stamps.
inline std::string provenance_json_lines() {
  const Provenance p = current_provenance();
  return "  \"git_commit\": \"" + p.git_commit + "\",\n" +
         "  \"machine\": \"" + p.machine + "\",\n" +
         "  \"thp\": \"" + p.thp + "\",\n";
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

/// Pulls `"key": number` out of one serialized result line; nullopt when
/// the key is absent or its value is not a number.
inline std::optional<double> json_line_number(const std::string& line,
                                              const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return std::nullopt;
  const std::size_t begin = at + needle.size();
  const std::size_t end = line.find_first_of(",}", begin);
  return parse_number<double>(
      std::string_view(line).substr(begin, end - begin));
}

/// Reads the provenance stamps a bench JSON line carries into `p`.
inline void read_provenance_line(const std::string& line, Provenance& p) {
  if (const auto commit = json_line_string(line, "git_commit"))
    p.git_commit = *commit;
  if (const auto machine = json_line_string(line, "machine"))
    p.machine = *machine;
  if (const auto thp = json_line_string(line, "thp")) p.thp = *thp;
}

/// Why a --compare baseline stamped `baseline` may not be comparable with
/// a run stamped `current`; empty when it is. A dirty baseline is always
/// suspect, even at the current hash: no commit holds the code it
/// measured. The THP mode is compared only when both sides carry it, since
/// baselines written before it was stamped do not.
inline std::vector<std::string> baseline_problems(const Provenance& baseline,
                                                  const Provenance& current) {
  if (baseline.git_commit.empty() || baseline.machine.empty())
    return {"baseline has no git_commit/machine stamp (predates provenance "
            "stamping) — it may be arbitrarily stale"};
  std::vector<std::string> problems;
  if (baseline.git_commit.ends_with(kDirtySuffix))
    problems.push_back("baseline commit " + baseline.git_commit +
                       " was measured with uncommitted changes");
  if (baseline.git_commit != current.git_commit)
    problems.push_back("baseline commit " + baseline.git_commit +
                       " != current " + current.git_commit);
  if (baseline.machine != current.machine)
    problems.push_back("baseline machine " + baseline.machine +
                       " != current " + current.machine);
  if (!baseline.thp.empty() && !current.thp.empty() &&
      baseline.thp != current.thp)
    problems.push_back("baseline THP mode " + baseline.thp + " != current " +
                       current.thp);
  return problems;
}

/// Loud stderr banner when a --compare baseline has no provenance stamp or
/// was measured elsewhere/elsewhen (baseline_problems). Ratios against such
/// a baseline can reflect machine or commit drift rather than the change
/// under test.
inline void warn_if_stale_baseline(const std::string& path,
                                   const Provenance& baseline) {
  const std::vector<std::string> problems =
      baseline_problems(baseline, current_provenance());
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
