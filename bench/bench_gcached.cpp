// Concurrent gcached runtime scaling: closed-loop throughput and latency
// percentiles across a shard-count x thread-count grid.
//
// Each grid cell builds a fresh ShardedCache and replays the same Zipf
// workload through N closed-loop client threads (bench/loadgen). Misses pay
// a simulated backend fill (--fill-us) on the fill-register path: the fill
// sleeps with no lock held, concurrent accesses to the same shard proceed,
// and accesses to the in-flight block coalesce as delayed hits. Each client
// has one fill register, so fills overlap across shards AND, up to N of
// them, within one shard.
//
// Ratios keep the scaling signal machine-independent — the CI perf-smoke
// gates assert (8 shards, 4 threads) >= 2x (1, 1) and (1 shard, 8 threads)
// >= 2x (1, 1), never an absolute number; the second is fill overlap
// inside a single shard. Alongside throughput, each cell reports AMAT (average
// memory access time charged to fills: (misses*fill + delayed-hit waits) /
// accesses) and the delayed-hit counters.
//
// Output: aligned table, optional CSV, and BENCH_gcached.json with the full
// grid plus git_commit/machine provenance stamps (see bench_common.hpp).
#include <chrono>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "gcached/gcached.hpp"
#include "gcached/loadgen.hpp"
#include "obs/gcmon.hpp"
#include "traces/synthetic.hpp"
#include "util/contracts.hpp"

namespace gcaching::bench {
namespace {

struct Options {
  std::optional<std::string> csv_dir;
  std::string json_path = "BENCH_gcached.json";
  std::optional<std::string> compare_path;  // previous BENCH_gcached.json
  bool quick = false;
  std::string policy = "item-lru";
  std::vector<std::size_t> shards;   // empty = default grid
  std::vector<std::size_t> threads;  // empty = default grid
  std::uint64_t ops = 0;             // 0 = default per-cell op count
  double fill_us = 50.0;
  std::uint64_t fill_ns = 0;  ///< fill_us in ns, set by parse (checked)
  std::uint64_t seed = 1;
  /// Attach a live gcmon monitor (snapshot thread) to every cell —
  /// the configuration the CI overhead gate measures against a plain run.
  bool mon = false;
  std::uint64_t mon_interval_ms = 10;
  /// Capture per-thread hardware counters into the JSON (loud fallback to
  /// perf_valid=false where perf_event_open is unavailable).
  bool perf = false;
};

std::vector<std::size_t> parse_size_list(std::string_view flag,
                                         std::string_view arg) {
  std::vector<std::size_t> out;
  for (const std::string_view token : split_list(arg))
    out.push_back(flag_number<std::size_t>(flag, token));
  return out;
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
      opts.policy = argv[++a];
    } else if (arg == "--shards" && a + 1 < argc) {
      opts.shards = parse_size_list(arg, argv[++a]);
    } else if (arg == "--threads" && a + 1 < argc) {
      opts.threads = parse_size_list(arg, argv[++a]);
    } else if (arg == "--ops" && a + 1 < argc) {
      opts.ops = flag_number<std::uint64_t>(arg, argv[++a]);
    } else if (arg == "--fill-us" && a + 1 < argc) {
      opts.fill_us = flag_number<double>(arg, argv[++a]);
    } else if (arg == "--seed" && a + 1 < argc) {
      opts.seed = flag_number<std::uint64_t>(arg, argv[++a]);
    } else if (arg == "--compare" && a + 1 < argc) {
      opts.compare_path = argv[++a];
    } else if (arg == "--mon-interval-ms" && a + 1 < argc) {
      opts.mon_interval_ms = flag_number<std::uint64_t>(arg, argv[++a]);
    } else if (arg == "--mon") {
      opts.mon = true;
    } else if (arg == "--perf") {
      opts.perf = true;
    } else if (arg == "--quick") {
      opts.quick = true;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: " << argv[0]
                << " [--csv DIR] [--json PATH] [--compare OLD.json]"
                << " [--quick] [--policy SPEC] [--shards S[,S...]]"
                << " [--threads N[,N...]] [--ops N] [--fill-us F]"
                << " [--seed S] [--mon] [--mon-interval-ms M] [--perf]\n"
                << "each client thread has one fill register, so up to N "
                   "fills of --fill-us overlap in one shard\n";
      std::exit(0);
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      std::exit(2);
    }
  }
  const std::optional<std::uint64_t> fill_ns =
      gcached::fill_us_to_ns(opts.fill_us);
  if (!fill_ns) {
    std::cerr << "--fill-us must be a finite, non-negative number of "
                 "microseconds below 2^63 ns (got "
              << opts.fill_us << ")\n";
    std::exit(2);
  }
  opts.fill_ns = *fill_ns;
  if (opts.shards.empty())
    opts.shards = opts.quick ? std::vector<std::size_t>{1, 2, 8}
                             : std::vector<std::size_t>{1, 2, 8, 32};
  // Quick threads include 8 so the CI in-shard overlap gate cell
  // (1 shard, 8 threads) exists even under --quick.
  if (opts.threads.empty())
    opts.threads = opts.quick ? std::vector<std::size_t>{1, 4, 8}
                              : std::vector<std::size_t>{1, 2, 4, 8};
  if (opts.ops == 0) opts.ops = opts.quick ? 40'000 : 150'000;
  return opts;
}

struct GridCell {
  std::size_t shards = 0;
  std::size_t threads = 0;
  gcached::LoadResult load;
};

/// An old BENCH_gcached.json cell, reloaded for `--compare`.
struct OldCell {
  std::size_t shards = 0;
  std::size_t threads = 0;
  double ops_per_sec = 0.0;
};

/// A previous run's JSON: provenance header plus result cells (the same
/// line-oriented scan bench_throughput uses — the format is our own
/// line-per-cell serialization, so this is exact).
struct OldJson {
  Provenance stamp;  // empty fields when the baseline predates stamping
  std::vector<OldCell> cells;
};

OldJson read_old_json(const std::string& path) {
  std::ifstream in(path);
  GC_REQUIRE(in.good(), "cannot open --compare file " + path);
  OldJson old;
  std::string line;
  while (std::getline(in, line)) {
    read_provenance_line(line, old.stamp);
    const auto shards = json_line_number(line, "shards");
    const auto threads = json_line_number(line, "threads");
    const auto ops = json_line_number(line, "ops_per_sec");
    if (shards && threads && ops) {
      old.cells.push_back({static_cast<std::size_t>(*shards),
                           static_cast<std::size_t>(*threads), *ops});
    }
  }
  GC_REQUIRE(!old.cells.empty(), "no result cells found in " + path);
  return old;
}

template <typename Cell>
const Cell* find_cell(const std::vector<Cell>& cells, std::size_t shards,
                      std::size_t threads) {
  for (const Cell& c : cells)
    if (c.shards == shards && c.threads == threads) return &c;
  return nullptr;
}

/// Per-cell throughput delta against a previous run, keyed on
/// (shards, threads) — visible without hand-diffing two JSON files. Cells
/// the baseline lacks (e.g. against a pre-MSHR baseline) print as "new"
/// rather than faking a ratio.
void print_compare(const std::string& path, const std::vector<OldCell>& old,
                   const std::vector<GridCell>& cells) {
  std::cout << "\nthroughput delta vs " << path << "\n";
  std::cout << "  " << std::right << std::setw(7) << "shards"
            << std::setw(8) << "threads" << std::setw(14)
            << "old_ops_s" << std::setw(14) << "new_ops_s" << std::setw(10)
            << "ratio" << "\n";
  for (const GridCell& cell : cells) {
    const OldCell* prev = find_cell(old, cell.shards, cell.threads);
    std::cout << "  " << std::setw(7) << cell.shards << std::setw(8)
              << cell.threads;
    if (prev == nullptr) {
      std::cout << std::setw(14) << "-" << std::setw(14)
                << fmti(static_cast<std::uint64_t>(cell.load.ops_per_sec))
                << std::setw(10) << "new" << "\n";
      continue;
    }
    std::cout << std::setw(14)
              << fmti(static_cast<std::uint64_t>(prev->ops_per_sec))
              << std::setw(14)
              << fmti(static_cast<std::uint64_t>(cell.load.ops_per_sec))
              << std::setw(10) << fmtr(cell.load.ops_per_sec / prev->ops_per_sec)
              << "\n";
  }
}

void write_json(const Options& opts, const Workload& workload,
                std::size_t capacity, const std::vector<GridCell>& cells,
                const std::vector<OldCell>& old) {
  std::ofstream out(opts.json_path);
  GC_REQUIRE(out.good(), "cannot open " + opts.json_path + " for writing");
  out << "{\n"
      << "  \"bench\": \"gcached\",\n"
      << provenance_json_lines()
      << "  \"gc_fast_sim\": " << (kHotChecksEnabled ? "false" : "true")
      << ",\n"
      << "  \"quick\": " << (opts.quick ? "true" : "false") << ",\n"
      << "  \"policy\": \"" << opts.policy << "\",\n"
      << "  \"workload_accesses\": " << workload.trace.size() << ",\n"
      << "  \"capacity\": " << capacity << ",\n"
      << "  \"fill_latency_us\": " << opts.fill_us << ",\n"
      << "  \"ops_per_cell\": " << opts.ops << ",\n"
      << "  \"mon\": " << (opts.mon ? "true" : "false") << ",\n"
      << "  \"results\": [\n";
  const std::uint64_t fill_ns = opts.fill_ns;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const GridCell& c = cells[i];
    out << "    {\"shards\": " << c.shards
        << ", \"threads\": " << c.threads
        << ", \"ops\": " << c.load.ops << ", \"seconds\": " << c.load.seconds
        << ", \"ops_per_sec\": " << c.load.ops_per_sec
        << ", \"p50_us\": " << c.load.p50_us
        << ", \"p99_us\": " << c.load.p99_us
        << ", \"p999_us\": " << c.load.p999_us
        << ", \"miss_rate\": " << c.load.stats.miss_rate()
        << ", \"amat_us\": " << c.load.stats.amat_ns(fill_ns) * 1e-3
        << ", \"delayed_hits\": " << c.load.stats.delayed_hits
        << ", \"free_delayed_hits\": " << c.load.stats.free_delayed_hits
        << ", \"delayed_hit_wait_ns\": " << c.load.stats.delayed_hit_wait_ns
        << ", \"lock_contended\": " << c.load.lock_contended
        << ", \"backoff_rounds\": " << c.load.backoff_rounds;
    // perf_valid is always emitted so readers can distinguish "counters
    // read zero" from "perf_event_open unavailable on this machine".
    out << ", \"perf_valid\": " << (c.load.perf.valid ? "true" : "false");
    if (c.load.perf.valid) {
      out << ", \"cycles\": " << c.load.perf.cycles
          << ", \"instructions\": " << c.load.perf.instructions
          << ", \"llc_misses\": " << c.load.perf.llc_misses
          << ", \"context_switches\": " << c.load.perf.context_switches;
    }
    if (const OldCell* prev = find_cell(old, c.shards, c.threads)) {
      out << ", \"baseline_ops_per_sec\": " << prev->ops_per_sec
          << ", \"vs_baseline\": " << c.load.ops_per_sec / prev->ops_per_sec;
    }
    out << "}" << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

int run(int argc, char** argv) {
  const Options opts = parse(argc, argv);
  BenchOptions table_opts;
  table_opts.csv_dir = opts.csv_dir;
  table_opts.quick = opts.quick;

  // Same regime as bench_throughput's zipf-large: 64Ki items at 6%
  // capacity, ~47% item-lru miss rate — misses (hence backend fills) are
  // frequent enough that shard-level fill overlap dominates the cell time.
  Workload workload = traces::zipf_items(65536, 16, 200'000, 0.9, 42);
  const std::size_t capacity = 4096;
  workload.trace.precompute_block_ids(*workload.map);

  gcached::GcachedConfig cfg;
  cfg.capacity = capacity;
  cfg.fill_latency_ns = opts.fill_ns;

  TableSink table(table_opts, "gcached closed-loop scaling (" + opts.policy +
                                  ", fill " + fmt(opts.fill_us, 1) + "us)",
                  "gcached",
                  {"shards", "threads", "ops_s", "p50_us", "p99_us",
                   "amat_us", "delayed", "contended"});

  std::vector<GridCell> cells;
  for (std::size_t shards : opts.shards) {
    if (!cells.empty()) table.add_separator();
    for (std::size_t threads : opts.threads) {
      cfg.num_shards = shards;
      const auto cache =
          gcached::make_concurrent_cache(opts.policy, workload.map, cfg);
      gcached::LoadSpec spec;
      spec.threads = threads;
      spec.total_ops = opts.ops;
      spec.seed = opts.seed;
      spec.perf = opts.perf;
      // --mon reproduces the CI overhead-gate configuration: a background
      // snapshot thread taking every shard's lock once per harvest on a
      // tight interval, with no file exporters in the loop.
      std::optional<obs::Monitor> monitor;
      if (opts.mon) {
        obs::MonitorConfig mcfg;
        mcfg.interval = std::chrono::milliseconds(opts.mon_interval_ms);
        monitor.emplace(mcfg);
        monitor->attach_shards([&cache] { return cache->shard_counters(); });
        monitor->start();
        spec.monitor = &*monitor;
      }
      GridCell cell;
      cell.shards = shards;
      cell.threads = threads;
      cell.load =
          run_load(*cache, workload.trace, workload.trace.block_ids(), spec);
      if (monitor) {
        monitor->stop();
        if (const std::string err = monitor->export_error(); !err.empty()) {
          std::cerr << "error: " << err << "\n";
          return 1;
        }
      }
      table.add_row(
          {fmti(shards), fmti(threads),
           fmti(static_cast<std::uint64_t>(cell.load.ops_per_sec)),
           fmt(cell.load.p50_us, 1), fmt(cell.load.p99_us, 1),
           fmt(cell.load.stats.amat_ns(cfg.fill_latency_ns) * 1e-3, 1),
           fmti(cell.load.stats.delayed_hits),
           fmti(cell.load.lock_contended)});
      cells.push_back(cell);
    }
  }
  table.flush();

  // Headline ratios — the pairs the CI perf-smoke gates check. Both are
  // within-machine ratios, so absolute speed never gates.
  const GridCell* base = find_cell(cells, 1, 1);
  for (const auto& [shards, threads] :
       {std::pair<std::size_t, std::size_t>{8, 4}, {1, 8}}) {
    const GridCell* scaled = find_cell(cells, shards, threads);
    if (base != nullptr && scaled != nullptr)
      std::cout << "scaling (" << shards << " shard(s), " << threads
                << " threads) vs (1 shard, 1 thread): "
                << fmtr(scaled->load.ops_per_sec / base->load.ops_per_sec)
                << "x\n";
  }

  OldJson old;
  if (opts.compare_path) {
    old = read_old_json(*opts.compare_path);
    warn_if_stale_baseline(*opts.compare_path, old.stamp);
    print_compare(*opts.compare_path, old.cells, cells);
  }
  write_json(opts, workload, capacity, cells, old.cells);
  std::cout << "wrote " << opts.json_path << "\n";
  return 0;
}

}  // namespace
}  // namespace gcaching::bench

int main(int argc, char** argv) {
  return gcaching::bench::run(argc, argv);
}
