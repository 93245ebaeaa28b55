// Simulation-engine throughput: accesses/sec for every factory policy on
// Zipf and adversarial workloads, under both engines:
//
//   * verify — the step-wise `Simulation` driver with virtual policy
//     dispatch (Definition 1 invariants enforced unless GC_FAST_SIM);
//   * fast   — `simulate_fast_spec`, the devirtualized template engine with
//     precomputed block ids.
//
// Both engines must produce bit-identical SimStats; this bench asserts that
// on every cell before reporting. Output: an aligned table, optional CSV,
// and a JSON file (default BENCH_throughput.json) with per-policy numbers
// so speedups can be compared across build configurations — the headline
// acceptance number is fast-build fast-engine item-lru/zipf vs the seed
// verifying build. See docs/PERF.md.
#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/simulator.hpp"
#include "policies/block_lru.hpp"
#include "policies/factory.hpp"
#include "policies/item_lru.hpp"
#include "traces/adversary.hpp"
#include "traces/synthetic.hpp"
#include "util/contracts.hpp"

namespace gcaching::bench {
namespace {

struct Options {
  std::optional<std::string> csv_dir;
  std::string json_path = "BENCH_throughput.json";
  bool quick = false;
  int repeats = 3;
  std::vector<std::string> policies;   // empty = every factory policy
  std::vector<std::string> workloads;  // empty = every workload
  std::optional<std::string> compare_path;
};

void append_csv_list(std::vector<std::string>& out, const std::string& arg) {
  std::size_t start = 0;
  while (start <= arg.size()) {
    const std::size_t comma = arg.find(',', start);
    const std::size_t end = comma == std::string::npos ? arg.size() : comma;
    if (end > start) out.push_back(arg.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
}

Options parse(int argc, char** argv) {
  Options opts;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg == "--csv" && a + 1 < argc) {
      opts.csv_dir = argv[++a];
    } else if (arg == "--json" && a + 1 < argc) {
      opts.json_path = argv[++a];
    } else if (arg == "--policy" && a + 1 < argc) {
      append_csv_list(opts.policies, argv[++a]);
    } else if (arg == "--workload" && a + 1 < argc) {
      append_csv_list(opts.workloads, argv[++a]);
    } else if (arg == "--compare" && a + 1 < argc) {
      opts.compare_path = argv[++a];
    } else if (arg == "--quick") {
      opts.quick = true;
      opts.repeats = 1;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: " << argv[0]
                << " [--csv DIR] [--json PATH] [--quick]"
                << " [--policy SPEC[,SPEC...]] [--workload NAME[,NAME...]]"
                << " [--compare OLD.json]\n";
      std::exit(0);
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      std::exit(2);
    }
  }
  return opts;
}

bool selected(const std::vector<std::string>& filter, const std::string& name) {
  return filter.empty() ||
         std::find(filter.begin(), filter.end(), name) != filter.end();
}

struct BenchWorkload {
  std::string name;
  Workload workload;
  std::size_t capacity = 0;
};

struct Cell {
  std::string workload;
  std::string policy;
  std::size_t accesses = 0;
  double verify_s = 0.0;
  double fast_s = 0.0;
  SimStats stats;

  double verify_aps() const {
    return static_cast<double>(accesses) / verify_s;
  }
  double fast_aps() const { return static_cast<double>(accesses) / fast_s; }
  double speedup() const { return verify_s / fast_s; }
};

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// One timed verify-engine run (fresh policy instance, includes prepare).
double time_verify(const std::string& spec, const BenchWorkload& bw,
                   SimStats& out) {
  const auto policy = make_policy(spec, bw.capacity);
  const auto t0 = std::chrono::steady_clock::now();
  out = simulate(bw.workload, *policy, bw.capacity);
  return seconds_since(t0);
}

/// One timed fast-engine run (block ids precomputed outside the timer).
double time_fast(const std::string& spec, const BenchWorkload& bw,
                 SimStats& out) {
  const auto t0 = std::chrono::steady_clock::now();
  out = simulate_fast_spec(spec, bw.workload, bw.capacity);
  return seconds_since(t0);
}

/// An old BENCH_throughput.json cell, reloaded for `--compare`.
struct OldCell {
  std::string workload;
  std::string policy;
  double fast_aps = 0.0;
};

// json_line_string / json_line_number (the line-oriented --compare readers)
// live in bench_common.hpp, shared with bench_gcached.

/// A previous run's JSON: provenance header plus result cells.
struct OldJson {
  Provenance stamp;  // empty fields when the baseline predates stamping
  std::vector<OldCell> cells;
};

/// Reads the provenance header and result cells back out of a previous
/// run's JSON. The format is our own line-per-cell serialization from
/// write_json, so a line-oriented scan is exact — no general JSON parser
/// needed.
OldJson read_old_json(const std::string& path) {
  std::ifstream in(path);
  GC_REQUIRE(in.good(), "cannot open --compare file " + path);
  OldJson old;
  std::string line;
  while (std::getline(in, line)) {
    read_provenance_line(line, old.stamp);
    const auto workload = json_line_string(line, "workload");
    const auto policy = json_line_string(line, "policy");
    const auto aps = json_line_number(line, "fast_accesses_per_sec");
    if (workload && policy && aps)
      old.cells.push_back({*workload, *policy, *aps});
  }
  GC_REQUIRE(!old.cells.empty(), "no result cells found in " + path);
  return old;
}

const OldCell* find_old(const std::vector<OldCell>& old, const Cell& cell) {
  for (const OldCell& c : old)
    if (c.workload == cell.workload && c.policy == cell.policy) return &c;
  return nullptr;
}

/// Prints the per-cell fast-engine delta against a previous run: old and new
/// accesses/sec plus the new/old ratio, so a rewrite's effect is visible
/// without hand-diffing two JSON files.
void print_compare(const std::string& path, const std::vector<OldCell>& old,
                   const std::vector<Cell>& cells) {
  std::cout << "\nfast-engine delta vs " << path << "\n";
  std::cout << "  " << std::left << std::setw(12) << "workload"
            << std::setw(20) << "policy" << std::right << std::setw(14)
            << "old_acc_s" << std::setw(14) << "new_acc_s" << std::setw(10)
            << "ratio" << "\n";
  for (const Cell& cell : cells) {
    const OldCell* prev = find_old(old, cell);
    std::cout << "  " << std::left << std::setw(12) << cell.workload
              << std::setw(20) << cell.policy << std::right;
    if (prev == nullptr) {
      std::cout << std::setw(14) << "-" << std::setw(14)
                << fmti(static_cast<std::uint64_t>(cell.fast_aps()))
                << std::setw(10) << "new" << "\n";
      continue;
    }
    std::cout << std::setw(14)
              << fmti(static_cast<std::uint64_t>(prev->fast_aps))
              << std::setw(14)
              << fmti(static_cast<std::uint64_t>(cell.fast_aps()))
              << std::setw(10) << fmtr(cell.fast_aps() / prev->fast_aps)
              << "\n";
  }
}

std::vector<BenchWorkload> make_workloads(const Options& opts) {
  const bool quick = opts.quick;
  // Unselected workloads are skipped at construction time — the adversarial
  // traces are captured by actually running the target policy, which is the
  // expensive part a `--workload zipf` before/after loop must not pay.
  const auto wanted = [&opts](const std::string& name) {
    return selected(opts.workloads, name);
  };
  std::vector<BenchWorkload> ws;

  const std::size_t zipf_len = quick ? 200'000 : 2'000'000;
  // The headline Zipf workload is deliberately small enough that both
  // engines' per-item state stays L1-resident, and runs at a realistic
  // high hit rate (~93% for item-lru): the bench then measures engine
  // overhead, not DRAM latency. Acceptance numbers in docs/PERF.md use
  // item-lru on this workload.
  if (wanted("zipf"))
    ws.push_back(
        {"zipf", traces::zipf_items(4096, 16, zipf_len, 0.9, 42), 3072});
  // The memory-bound regime: a 64Ki-item universe at 6% capacity, ~47%
  // miss rate for item-lru. Both engines stall on the same random loads
  // here, so speedups are smaller — kept to show exactly that.
  if (wanted("zipf-large"))
    ws.push_back(
        {"zipf-large", traces::zipf_items(65536, 16, zipf_len, 0.9, 42),
         4096});

  // Adversarial traces are captured once against their target policy class
  // and replayed identically for every policy under test.
  traces::AdversaryOptions adv;
  adv.k = 512;
  adv.h = 256;
  adv.B = 16;
  adv.phases = quick ? 40 : 400;
  if (wanted("adv-item")) {
    ItemLru target;
    ws.push_back({"adv-item", traces::run_item_adversary(target, adv).workload,
                  adv.k});
  }
  if (wanted("adv-block")) {
    // Theorem 3 requires h <= ceil(k/B).
    traces::AdversaryOptions badv = adv;
    badv.h = 16;
    badv.phases = quick ? 200 : 2000;
    BlockLru target;
    ws.push_back({"adv-block",
                  traces::run_block_adversary(target, badv).workload, badv.k});
  }
  GC_REQUIRE(!ws.empty(), "--workload filter matched no bench workload");
  return ws;
}

void write_json(const Options& opts, const std::vector<Cell>& cells,
                const std::vector<OldCell>& old) {
  std::ofstream out(opts.json_path);
  GC_REQUIRE(out.good(), "cannot open " + opts.json_path + " for writing");
  out << "{\n"
      << "  \"bench\": \"throughput\",\n"
      << provenance_json_lines()
      << "  \"gc_fast_sim\": " << (kHotChecksEnabled ? "false" : "true")
      << ",\n"
      << "  \"quick\": " << (opts.quick ? "true" : "false") << ",\n"
      << "  \"repeats\": " << opts.repeats << ",\n";
  if (opts.compare_path)
    out << "  \"compare\": \""
        << std::filesystem::path(*opts.compare_path).filename().string()
        << "\",\n";
  out << "  \"results\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    out << "    {\"workload\": \"" << c.workload << "\", \"policy\": \""
        << c.policy << "\", \"accesses\": " << c.accesses
        << ", \"verify_seconds\": " << c.verify_s
        << ", \"fast_seconds\": " << c.fast_s
        << ", \"verify_accesses_per_sec\": " << c.verify_aps()
        << ", \"fast_accesses_per_sec\": " << c.fast_aps()
        << ", \"speedup\": " << c.speedup();
    // With --compare, embed the before/after so the committed JSON carries
    // the baseline a rewrite was measured against, not just the new number.
    if (const OldCell* prev = find_old(old, c))
      out << ", \"baseline_fast_accesses_per_sec\": " << prev->fast_aps
          << ", \"vs_baseline\": " << c.fast_aps() / prev->fast_aps;
    out << ", \"misses\": " << c.stats.misses << "}"
        << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

int run(int argc, char** argv) {
  const Options opts = parse(argc, argv);
  BenchOptions table_opts;
  table_opts.csv_dir = opts.csv_dir;
  table_opts.quick = opts.quick;

  std::vector<std::string> specs;
  for (const std::string& spec : known_policy_names())
    if (selected(opts.policies, spec)) specs.push_back(spec);
  // A filter naming no factory policy is a typo, not an empty bench.
  for (const std::string& spec : opts.policies)
    GC_REQUIRE(std::find(specs.begin(), specs.end(), spec) != specs.end(),
               "--policy " + spec + " is not a factory policy name");

  std::vector<BenchWorkload> workloads = make_workloads(opts);
  // Shared per-workload block ids: resolved once, reused by every fast run.
  for (BenchWorkload& bw : workloads)
    bw.workload.trace.precompute_block_ids(*bw.workload.map);

  TableSink table(table_opts, "Simulation-engine throughput (accesses/sec)",
                  "throughput",
                  {"workload", "policy", "accesses", "verify_acc_s",
                   "fast_acc_s", "speedup"});

  std::vector<Cell> cells;
  for (const BenchWorkload& bw : workloads) {
    if (!cells.empty()) table.add_separator();
    for (const std::string& spec : specs) {
      Cell cell;
      cell.workload = bw.name;
      cell.policy = spec;
      cell.accesses = bw.workload.trace.size();
      cell.verify_s = 1e300;
      cell.fast_s = 1e300;
      SimStats verify_stats, fast_stats;
      for (int rep = 0; rep < opts.repeats; ++rep) {
        cell.verify_s =
            std::min(cell.verify_s, time_verify(spec, bw, verify_stats));
        cell.fast_s = std::min(cell.fast_s, time_fast(spec, bw, fast_stats));
      }
      GC_REQUIRE(verify_stats == fast_stats,
                 "engine mismatch for " + spec + " on " + bw.name);
      cell.stats = fast_stats;
      table.add_row({bw.name, spec, fmti(cell.accesses),
                     fmti(static_cast<std::uint64_t>(cell.verify_aps())),
                     fmti(static_cast<std::uint64_t>(cell.fast_aps())),
                     fmtr(cell.speedup())});
      cells.push_back(cell);
    }
  }
  table.flush();
  OldJson old;
  if (opts.compare_path) {
    old = read_old_json(*opts.compare_path);
    warn_if_stale_baseline(*opts.compare_path, old.stamp);
    print_compare(*opts.compare_path, old.cells, cells);
  }
  write_json(opts, cells, old.cells);
  std::cout << "wrote " << opts.json_path << "\n";
  return 0;
}

}  // namespace
}  // namespace gcaching::bench

int main(int argc, char** argv) {
  return gcaching::bench::run(argc, argv);
}
