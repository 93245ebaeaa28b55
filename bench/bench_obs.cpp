// Telemetry overhead: what the GC_OBS_* hooks cost the fast engine.
//
// Three regimes are measured on the headline zipf workload (item-lru,
// fast engine — the same cell bench_throughput uses for its acceptance
// number):
//
//   * idle            — obs compiled in, no timeline/log attached. Every
//                       hook is a hoisted null test. The acceptance budget
//                       (docs/OBSERVABILITY.md) is <= 2% slowdown vs a
//                       GCACHING_OBS=OFF build of this same bench.
//   * timeline-coarse — a StatsTimeline attached at window 4096: the
//                       windowing cost in its intended configuration.
//   * timeline-fine   — window 64: a deliberately abusive cadence, the
//                       upper end of what windowing can cost.
//
// A second section times a small sweep with and without a trace-event log
// installed (spans fire per row, cell and pool task, not per access, so
// this cost is amortized noise).
//
// Every regime must produce bit-identical SimStats — asserted before
// reporting. JSON (default BENCH_obs.json) records `gcaching_obs`, so the
// compiled-out baseline is obtained by running the same bench from a
// `fast`-preset build and comparing `idle_accesses_per_sec` across the two
// files.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/simulator.hpp"
#include "obs/obs.hpp"
#include "policies/factory.hpp"
#include "sim/runner.hpp"
#include "traces/synthetic.hpp"
#include "util/contracts.hpp"

namespace gcaching::bench {
namespace {

struct Options {
  std::optional<std::string> csv_dir;
  std::string json_path = "BENCH_obs.json";
  bool quick = false;
  int repeats = 5;
};

Options parse(int argc, char** argv) {
  Options opts;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg == "--csv" && a + 1 < argc) {
      opts.csv_dir = argv[++a];
    } else if (arg == "--json" && a + 1 < argc) {
      opts.json_path = argv[++a];
    } else if (arg == "--quick") {
      opts.quick = true;
      opts.repeats = 2;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: " << argv[0]
                << " [--csv DIR] [--json PATH] [--quick]\n";
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

struct Mode {
  std::string name;
  std::size_t window = 0;  // 0 = no timeline attached
  double best_s = 1e300;
  SimStats stats;
  std::size_t windows_recorded = 0;
};

int run(int argc, char** argv) {
  const Options opts = parse(argc, argv);
  BenchOptions table_opts;
  table_opts.csv_dir = opts.csv_dir;
  table_opts.quick = opts.quick;

  const std::size_t len = opts.quick ? 200'000 : 2'000'000;
  const std::size_t capacity = 3072;
  const std::string spec = "item-lru";
  Workload w = traces::zipf_items(4096, 16, len, 0.9, 42);
  w.trace.precompute_block_ids(*w.map);

  std::vector<Mode> modes = {{"idle", 0, 1e300, {}, 0},
                             {"timeline-coarse", 4096, 1e300, {}, 0},
                             {"timeline-fine", 64, 1e300, {}, 0}};
  for (int rep = 0; rep < opts.repeats; ++rep) {
    for (Mode& m : modes) {
      SimStats s;
      std::size_t windows = 0;
      if (m.window == 0) {
        const auto t0 = std::chrono::steady_clock::now();
        s = simulate_fast_spec(spec, w, capacity);
        m.best_s = std::min(m.best_s, seconds_since(t0));
      } else {
        obs::StatsTimeline timeline(m.window);
        const obs::TimelineScope scope(timeline);
        const auto t0 = std::chrono::steady_clock::now();
        s = simulate_fast_spec(spec, w, capacity);
        m.best_s = std::min(m.best_s, seconds_since(t0));
        windows = timeline.windows().size();
      }
      if (rep == 0) {
        m.stats = s;
        m.windows_recorded = windows;
      } else {
        GC_REQUIRE(s == m.stats, "mode " + m.name + " perturbed SimStats");
      }
    }
  }
  for (const Mode& m : modes)
    GC_REQUIRE(m.stats == modes[0].stats,
               "telemetry mode " + m.name + " changed the simulation result");

  const double idle_aps = static_cast<double>(len) / modes[0].best_s;
  TableSink table(table_opts,
                  std::string("GC_OBS hook overhead (fast engine, item-lru, "
                              "GCACHING_OBS=") +
                      (obs::kObsEnabled ? "ON)" : "OFF)"),
                  "obs", {"mode", "windows", "accesses_per_sec", "vs_idle"});
  for (const Mode& m : modes) {
    const double aps = static_cast<double>(len) / m.best_s;
    table.add_row({m.name, fmti(m.windows_recorded),
                   fmti(static_cast<std::uint64_t>(aps)),
                   fmt(aps / idle_aps, 3)});
  }
  table.flush();

  // Sweep section: spans fire per row/cell/precompute, so an installed log
  // should be indistinguishable from idle at sweep granularity.
  std::vector<Workload> sweep_w;
  sweep_w.push_back(std::move(w));
  sim::SweepSpec sweep;
  sweep.workloads = &sweep_w;
  sweep.policy_specs = {"item-lru", "block-fifo", "iblp"};
  sweep.capacities = {256, 1024, 3072};
  sweep.threads = 2;
  double sweep_idle_s = 1e300;
  double sweep_sinks_s = 1e300;
  std::size_t trace_events = 0;
  for (int rep = 0; rep < opts.repeats; ++rep) {
    {
      const auto t0 = std::chrono::steady_clock::now();
      (void)sim::run_sweep(sweep);
      sweep_idle_s = std::min(sweep_idle_s, seconds_since(t0));
    }
    {
      obs::TraceLog log;
      const obs::TraceLogScope trace_scope(log);
      const auto t0 = std::chrono::steady_clock::now();
      (void)sim::run_sweep(sweep);
      sweep_sinks_s = std::min(sweep_sinks_s, seconds_since(t0));
      trace_events = log.size();
    }
  }
  std::cout << "sweep (9 cells, 2 threads): idle "
            << fmt(sweep_idle_s, 3) << "s, trace log installed "
            << fmt(sweep_sinks_s, 3) << "s (" << trace_events
            << " trace events)\n";

  std::ofstream out(opts.json_path);
  GC_REQUIRE(out.good(), "cannot open " + opts.json_path + " for writing");
  out << "{\n"
      << "  \"bench\": \"obs\",\n"
      << "  \"gcaching_obs\": " << (obs::kObsEnabled ? "true" : "false")
      << ",\n"
      << "  \"gc_fast_sim\": " << (kHotChecksEnabled ? "false" : "true")
      << ",\n"
      << "  \"quick\": " << (opts.quick ? "true" : "false") << ",\n"
      << "  \"accesses\": " << len << ",\n"
      << "  \"idle_accesses_per_sec\": " << idle_aps << ",\n"
      << "  \"modes\": [\n";
  for (std::size_t i = 0; i < modes.size(); ++i) {
    const Mode& m = modes[i];
    const double aps = static_cast<double>(len) / m.best_s;
    out << "    {\"mode\": \"" << m.name << "\", \"window\": " << m.window
        << ", \"windows_recorded\": " << m.windows_recorded
        << ", \"accesses_per_sec\": " << aps << ", \"vs_idle\": "
        << aps / idle_aps << "}" << (i + 1 < modes.size() ? "," : "") << "\n";
  }
  out << "  ],\n"
      << "  \"sweep_idle_seconds\": " << sweep_idle_s << ",\n"
      << "  \"sweep_sinks_seconds\": " << sweep_sinks_s << ",\n"
      << "  \"sweep_trace_events\": " << trace_events << "\n"
      << "}\n";
  std::cout << "wrote " << opts.json_path << "\n";
  return 0;
}

}  // namespace
}  // namespace gcaching::bench

int main(int argc, char** argv) {
  return gcaching::bench::run(argc, argv);
}
