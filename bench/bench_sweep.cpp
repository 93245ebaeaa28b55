// Sweep-engine modes: per-cell vs stack-column vs the run_sweep scheduler.
//
// Two measurements, both asserting bit-identical SimStats before reporting:
//
//   * column — one (workload, policy) row over a geometric capacity column,
//     timed two ways: per-cell `simulate_fast_spec` (one trace pass per
//     capacity) and `simulate_column_spec`, whose stack policies collapse
//     into a single stack-distance pass. The acceptance headline is the
//     stack path's speedup over per-cell on the >= 16-capacity item-lru
//     column.
//   * grid — a mixed-cost policy grid: a static-chunk
//     `ThreadPool::parallel_for` over per-cell `simulate_fast_spec` (the
//     baseline) vs `run_sweep` (stack rows and single cells, scheduled
//     longest-estimated-first via estimated_sim_cost).
//
// Note: in checking builds the stack path re-runs per-cell simulate_fast as
// a cross-check, so its timings only mean something under GC_FAST_SIM (the
// `fast` preset); the JSON records which configuration ran. Output:
// aligned tables, optional CSV, and BENCH_sweep.json. See docs/PERF.md.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "core/simulator.hpp"
#include "policies/factory.hpp"
#include "sim/runner.hpp"
#include "sim/thread_pool.hpp"
#include "traces/synthetic.hpp"
#include "util/contracts.hpp"

namespace gcaching::bench {
namespace {

struct Options {
  std::optional<std::string> csv_dir;
  std::string json_path = "BENCH_sweep.json";
  bool quick = false;
  int repeats = 3;
  std::size_t threads = 0;  // 0 = hardware concurrency
};

Options parse(int argc, char** argv) {
  Options opts;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg == "--csv" && a + 1 < argc) {
      opts.csv_dir = argv[++a];
    } else if (arg == "--json" && a + 1 < argc) {
      opts.json_path = argv[++a];
    } else if (arg == "--threads" && a + 1 < argc) {
      opts.threads = flag_number<std::size_t>(arg, argv[++a]);
    } else if (arg == "--quick") {
      opts.quick = true;
      opts.repeats = 1;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: " << argv[0]
                << " [--csv DIR] [--json PATH] [--threads N] [--quick]\n";
      std::exit(0);
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      std::exit(2);
    }
  }
  return opts;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

void require_identical(const std::vector<SimStats>& a,
                       const std::vector<SimStats>& b,
                       const std::string& what) {
  GC_REQUIRE(a.size() == b.size(), "result count mismatch: " + what);
  for (std::size_t i = 0; i < a.size(); ++i)
    GC_REQUIRE(a[i] == b[i], "stats mismatch (" + what + ") at column index " +
                                 std::to_string(i));
}

struct ColumnResult {
  std::string workload;
  std::string policy;
  std::size_t accesses = 0;
  std::size_t num_capacities = 0;
  double per_cell_s = 0.0;
  double stack_s = 0.0;
};

/// Times per-cell runs against the stack pass of one row and checks
/// identity.
ColumnResult bench_column(const Options& opts, const std::string& spec,
                          const std::string& workload_name, const Workload& w,
                          const std::vector<std::size_t>& capacities) {
  const BlockIdVector ids = compute_block_ids(*w.map, w.trace);
  const std::span<const BlockId> ids_span(ids);
  GC_REQUIRE(stack_column_eligible(spec, *w.map),
             spec + " has no stack pass on " + workload_name);

  ColumnResult r;
  r.workload = workload_name;
  r.policy = spec;
  r.accesses = w.trace.size();
  r.num_capacities = capacities.size();
  r.per_cell_s = 1e300;
  r.stack_s = 1e300;

  std::vector<SimStats> per_cell(capacities.size());
  std::vector<SimStats> stack;
  for (int rep = 0; rep < opts.repeats; ++rep) {
    {
      const auto t0 = std::chrono::steady_clock::now();
      for (std::size_t i = 0; i < capacities.size(); ++i)
        per_cell[i] =
            simulate_fast_spec(spec, *w.map, w.trace, ids_span, capacities[i]);
      r.per_cell_s = std::min(r.per_cell_s, seconds_since(t0));
    }
    {
      const auto t0 = std::chrono::steady_clock::now();
      stack = simulate_column_spec(spec, *w.map, w.trace, ids_span, capacities);
      r.stack_s = std::min(r.stack_s, seconds_since(t0));
    }
  }
  require_identical(per_cell, stack, spec + " per-cell vs stack");
  return r;
}

struct GridResult {
  std::size_t cells = 0;
  std::uint64_t total_accesses = 0;
  std::size_t threads = 0;
  double per_cell_s = 0.0;
  double batched_s = 0.0;
};

/// The baseline grid: block ids resolved per workload, then one
/// simulate_fast_spec per cell in the pool's static index chunks, in
/// run_sweep's row-major cell order.
std::vector<SimStats> static_chunk_grid(
    ThreadPool& pool, const std::vector<Workload>& ws,
    const std::vector<std::string>& policies,
    const std::vector<std::size_t>& capacities) {
  std::vector<BlockIdVector> ids(ws.size());
  pool.parallel_for(ws.size(), [&](std::size_t w) {
    ids[w] = compute_block_ids(*ws[w].map, ws[w].trace);
  });
  const std::size_t np = policies.size();
  const std::size_t nc = capacities.size();
  std::vector<SimStats> stats(ws.size() * np * nc);
  pool.parallel_for(stats.size(), [&](std::size_t i) {
    const Workload& w = ws[i / (np * nc)];
    stats[i] = simulate_fast_spec(policies[i / nc % np], *w.map, w.trace,
                                  ids[i / (np * nc)], capacities[i % nc]);
  });
  return stats;
}

GridResult bench_grid(const Options& opts, const std::vector<Workload>& ws,
                      const std::vector<std::string>& policies,
                      const std::vector<std::size_t>& capacities) {
  sim::SweepSpec spec;
  spec.workloads = &ws;
  spec.policy_specs = policies;
  spec.capacities = capacities;
  spec.threads = opts.threads;

  GridResult r;
  r.cells = ws.size() * policies.size() * capacities.size();
  for (const Workload& w : ws)
    r.total_accesses += w.trace.size() * policies.size() * capacities.size();
  r.per_cell_s = 1e300;
  r.batched_s = 1e300;

  std::vector<SimStats> baseline;
  std::vector<sim::SweepCell> batched;
  for (int rep = 0; rep < opts.repeats; ++rep) {
    {
      // The pool's start-up is inside the timing, as it is in run_sweep.
      const auto t0 = std::chrono::steady_clock::now();
      ThreadPool pool(opts.threads);
      r.threads = pool.num_threads();
      baseline = static_chunk_grid(pool, ws, policies, capacities);
      r.per_cell_s = std::min(r.per_cell_s, seconds_since(t0));
    }
    {
      const auto t0 = std::chrono::steady_clock::now();
      batched = sim::run_sweep(spec);
      r.batched_s = std::min(r.batched_s, seconds_since(t0));
    }
  }
  GC_REQUIRE(baseline.size() == batched.size(), "grid size mismatch");
  for (std::size_t i = 0; i < baseline.size(); ++i)
    GC_REQUIRE(baseline[i] == batched[i].stats &&
                   capacities[i % capacities.size()] == batched[i].capacity,
               "grid cell mismatch at " + std::to_string(i));
  return r;
}

void write_json(const Options& opts, const std::vector<ColumnResult>& columns,
                const GridResult& grid) {
  std::ofstream out(opts.json_path);
  GC_REQUIRE(out.good(), "cannot open " + opts.json_path + " for writing");
  out << "{\n"
      << "  \"bench\": \"sweep\",\n"
      << provenance_json_lines()
      << "  \"gc_fast_sim\": " << (kHotChecksEnabled ? "false" : "true")
      << ",\n"
      << "  \"quick\": " << (opts.quick ? "true" : "false") << ",\n"
      << "  \"repeats\": " << opts.repeats << ",\n"
      << "  \"columns\": [\n";
  for (std::size_t i = 0; i < columns.size(); ++i) {
    const ColumnResult& c = columns[i];
    out << "    {\"workload\": \"" << c.workload << "\", \"policy\": \""
        << c.policy << "\", \"accesses\": " << c.accesses
        << ", \"num_capacities\": " << c.num_capacities
        << ", \"per_cell_seconds\": " << c.per_cell_s
        << ", \"stack_seconds\": " << c.stack_s
        << ", \"stack_speedup\": " << c.per_cell_s / c.stack_s
        << ", \"identical\": true}" << (i + 1 < columns.size() ? "," : "")
        << "\n";
  }
  out << "  ],\n"
      << "  \"grid\": {\"cells\": " << grid.cells
      << ", \"total_accesses\": " << grid.total_accesses
      << ", \"threads\": " << grid.threads
      << ", \"per_cell_seconds\": " << grid.per_cell_s
      << ", \"batched_seconds\": " << grid.batched_s
      << ", \"batched_speedup\": " << grid.per_cell_s / grid.batched_s
      << ", \"identical\": true}\n"
      << "}\n";
}

int run(int argc, char** argv) {
  const Options opts = parse(argc, argv);
  BenchOptions table_opts;
  table_opts.csv_dir = opts.csv_dir;
  table_opts.quick = opts.quick;

  // The throughput bench's headline workload: small enough to stay cache
  // resident, so column timings measure engine work rather than DRAM.
  const std::size_t len = opts.quick ? 200'000 : 2'000'000;
  const Workload zipf = traces::zipf_items(4096, 16, len, 0.9, 42);
  // Two MRC-style columns over the same 48..3072 range: the 16-capacity
  // minimum from the acceptance bar, and the dense 64-capacity column that
  // real miss-ratio-curve sampling uses — per-cell cost grows with every
  // added capacity, the stack pass does not.
  std::vector<std::size_t> caps16, caps64;
  for (std::size_t i = 1; i <= 16; ++i) caps16.push_back(192 * i);
  for (std::size_t i = 1; i <= 64; ++i) caps64.push_back(48 * i);

  TableSink column_table(
      table_opts, "Capacity-column modes (seconds, min of repeats)",
      "sweep_columns",
      {"workload", "policy", "caps", "per_cell_s", "stack_s", "stack_x"});
  std::vector<ColumnResult> columns;
  // item-lru and block-lru are the stack policies; every other policy's
  // column is per-cell by construction.
  for (const std::string spec : {"item-lru", "block-lru"})
    for (const std::vector<std::size_t>* caps : {&caps16, &caps64}) {
      const ColumnResult r = bench_column(opts, spec, "zipf", zipf, *caps);
      column_table.add_row({r.workload, r.policy, fmti(r.num_capacities),
                            fmt(r.per_cell_s, 4), fmt(r.stack_s, 4),
                            fmtr(r.per_cell_s / r.stack_s)});
      columns.push_back(r);
    }
  column_table.flush();

  // Mixed-cost grid: the ~17x policy skew is what the longest-first task
  // schedule exists for. Two workloads keep the block-id precompute
  // parallelism honest too.
  const std::size_t grid_len = opts.quick ? 100'000 : 1'000'000;
  std::vector<Workload> grid_workloads;
  grid_workloads.push_back(traces::zipf_items(4096, 16, grid_len, 0.9, 42));
  grid_workloads.push_back(
      traces::hot_item_per_block(256, 16, grid_len, 64, 0.2, 7));
  const std::vector<std::string> grid_policies = {"item-lfu", "item-lru",
                                                  "item-fifo", "block-lru"};
  const GridResult grid =
      bench_grid(opts, grid_workloads, grid_policies, caps16);

  TableSink grid_table(table_opts,
                       "Mixed lfu+lru grid: static chunks vs run_sweep (s)",
                       "sweep_grid",
                       {"cells", "threads", "per_cell_s", "batched_s",
                        "speedup"});
  grid_table.add_row({fmti(grid.cells), fmti(grid.threads),
                      fmt(grid.per_cell_s, 4), fmt(grid.batched_s, 4),
                      fmtr(grid.per_cell_s / grid.batched_s)});
  grid_table.flush();

  write_json(opts, columns, grid);
  std::cout << "wrote " << opts.json_path << "\n";
  return 0;
}

}  // namespace
}  // namespace gcaching::bench

int main(int argc, char** argv) {
  return gcaching::bench::run(argc, argv);
}
