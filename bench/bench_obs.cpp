// Telemetry overhead: what an installed trace-event log costs a sweep.
//
// The engines carry no telemetry (a timeline is a stepped verifying run,
// obs::record_timeline), so the only live hooks are the GC_OBS_SPAN sites
// of the sweep runner and the thread pool. They fire per row, cell,
// precompute and pool task, never per access. This bench times a small
// sweep (3 policies x 3 capacities, 2 threads) on the headline zipf
// workload with no log installed ("idle") and with a TraceLog installed
// ("trace-log"). JSON (default BENCH_obs.json) records `gcaching_obs`, so
// the compiled-out baseline is the same bench run from a `fast`-preset
// build.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "obs/obs.hpp"
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

int run(int argc, char** argv) {
  const Options opts = parse(argc, argv);
  BenchOptions table_opts;
  table_opts.csv_dir = opts.csv_dir;
  table_opts.quick = opts.quick;

  const std::size_t len = opts.quick ? 200'000 : 2'000'000;
  std::vector<Workload> sweep_w;
  sweep_w.push_back(traces::zipf_items(4096, 16, len, 0.9, 42));
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

  TableSink table(table_opts,
                  std::string("trace-log overhead (sweep, 9 cells, 2 threads, "
                              "GCACHING_OBS=") +
                      (obs::kObsEnabled ? "ON)" : "OFF)"),
                  "obs", {"mode", "trace_events", "seconds", "vs_idle"});
  table.add_row({"idle", fmti(0), fmt(sweep_idle_s, 3), fmt(1.0, 3)});
  table.add_row({"trace-log", fmti(trace_events), fmt(sweep_sinks_s, 3),
                 fmt(sweep_sinks_s / sweep_idle_s, 3)});
  table.flush();

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
