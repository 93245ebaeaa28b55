// gclint CLI — scans a repository checkout and reports convention
// violations (see gclint.hpp for the rule catalogue). Exit codes:
//   0  clean
//   1  violations found
//   2  usage / IO error
//
// Usage:
//   gclint [repo-root]
//          [--compile-commands <build>/compile_commands.json]
//          [--layers <path>]        default: <root>/tools/gclint/layers.txt
//          [--sarif <out.sarif>]    also write findings as SARIF 2.1
//          [--summary]              per-rule findings/ALLOW count table
//          [--list-allows]          list every GCLINT-ALLOW and exit
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "gclint.hpp"
#include "sarif.hpp"

namespace fs = std::filesystem;

namespace {

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

bool wanted_extension(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".h";
}

/// The per-rule summary table: findings and ALLOW counts per catalog rule,
/// in catalog order, with totals. Printed for --summary and into CI logs.
void print_summary(const std::vector<gclint::Finding>& findings,
                   const std::vector<gclint::AllowSite>& allows) {
  std::map<std::string, std::size_t> n_findings;
  std::map<std::string, std::size_t> n_allows;
  for (const auto& f : findings) ++n_findings[f.rule];
  for (const auto& a : allows)
    for (const std::string& r : a.rules) ++n_allows[r];
  std::cout << "rule                        findings   allows\n";
  std::cout << "--------------------------  --------   ------\n";
  std::size_t tf = 0, ta = 0;
  for (const gclint::RuleInfo& r : gclint::rule_catalog()) {
    const std::size_t f = n_findings.count(r.id) ? n_findings[r.id] : 0;
    const std::size_t a = n_allows.count(r.id) ? n_allows[r.id] : 0;
    tf += f;
    ta += a;
    std::cout << r.id;
    for (std::size_t pad = r.id.size(); pad < 28; ++pad) std::cout << ' ';
    std::string fs_ = std::to_string(f), as_ = std::to_string(a);
    for (std::size_t pad = fs_.size(); pad < 8; ++pad) std::cout << ' ';
    std::cout << fs_ << "   ";
    for (std::size_t pad = as_.size(); pad < 6; ++pad) std::cout << ' ';
    std::cout << as_ << "\n";
  }
  std::cout << "total                       ";
  std::string fs_ = std::to_string(tf), as_ = std::to_string(ta);
  for (std::size_t pad = fs_.size(); pad < 8; ++pad) std::cout << ' ';
  std::cout << fs_ << "   ";
  for (std::size_t pad = as_.size(); pad < 6; ++pad) std::cout << ' ';
  std::cout << as_ << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  std::string compile_commands_path;
  std::string layers_path;
  std::string sarif_path;
  bool list_allows_mode = false;
  bool summary = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "gclint: " << flag << " needs a path\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--compile-commands") {
      compile_commands_path = need_value("--compile-commands");
    } else if (arg == "--layers") {
      layers_path = need_value("--layers");
    } else if (arg == "--sarif") {
      sarif_path = need_value("--sarif");
    } else if (arg == "--list-allows") {
      list_allows_mode = true;
    } else if (arg == "--summary") {
      summary = true;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: gclint [repo-root] "
                   "[--compile-commands <path>] [--layers <path>] "
                   "[--sarif <out>] [--summary] [--list-allows]\n";
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "gclint: unknown option " << arg << "\n";
      return 2;
    } else {
      root = arg;
    }
  }

  const fs::path base(root);
  if (!fs::exists(base / "src")) {
    std::cerr << "gclint: " << root << " does not look like the repo root "
              << "(no src/ directory)\n";
    return 2;
  }

  std::vector<gclint::SourceFile> files;
  std::vector<fs::path> paths;
  for (const char* dir : {"src", "tests"}) {
    const fs::path d = base / dir;
    if (!fs::exists(d)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(d))
      if (entry.is_regular_file() && wanted_extension(entry.path()))
        paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  files.reserve(paths.size());
  for (const fs::path& p : paths)
    files.push_back({fs::relative(p, base).generic_string(), read_file(p)});

  const std::vector<gclint::AllowSite> allows = gclint::list_allows(files);
  if (list_allows_mode) {
    bool bad = false;
    for (const auto& a : allows) {
      std::string rules;
      for (const std::string& r : a.rules)
        rules += (rules.empty() ? "" : ", ") + r;
      std::cout << a.path << ":" << a.line << ": [" << rules << "] "
                << (a.reason.empty() ? "<MISSING REASON>" : a.reason) << "\n";
      if (a.reason.empty() || a.rules.empty()) bad = true;
    }
    std::cout << "gclint: " << allows.size() << " GCLINT-ALLOW site(s)\n";
    return bad ? 1 : 0;
  }

  gclint::LintOptions options;
  {
    const fs::path lp = layers_path.empty()
                            ? base / "tools" / "gclint" / "layers.txt"
                            : fs::path(layers_path);
    if (fs::exists(lp)) {
      options.layers_spec = read_file(lp);
    } else if (!layers_path.empty()) {
      std::cerr << "gclint: cannot read " << layers_path << "\n";
      return 2;
    }
  }

  std::vector<gclint::Finding> findings = gclint::lint(files, options);
  if (!compile_commands_path.empty()) {
    const std::string db = read_file(compile_commands_path);
    if (db.empty()) {
      std::cerr << "gclint: cannot read " << compile_commands_path << "\n";
      return 2;
    }
    const auto cov = gclint::check_build_coverage(files, db);
    findings.insert(findings.end(), cov.begin(), cov.end());
  }

  if (!sarif_path.empty()) {
    std::ofstream out(sarif_path, std::ios::binary);
    if (!out) {
      std::cerr << "gclint: cannot write " << sarif_path << "\n";
      return 2;
    }
    out << gclint::to_sarif(findings);
    out.flush();
    if (!out) {
      std::cerr << "gclint: cannot write " << sarif_path << "\n";
      return 2;
    }
  }

  for (const auto& f : findings) std::cout << gclint::format(f) << "\n";
  if (summary) print_summary(findings, allows);
  if (findings.empty()) {
    std::cout << "gclint: " << files.size() << " files scanned, 0 violations\n";
    return 0;
  }
  std::cout << "gclint: " << findings.size() << " violation(s) in "
            << files.size() << " files\n";
  return 1;
}
