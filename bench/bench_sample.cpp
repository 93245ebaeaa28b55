// Spatial sampling: speed and fidelity of SHARDS-style block sampling
// (locality/sample.hpp) against the exact batched sweep.
//
// One large rank-scrambled zipf workload is swept exactly (the baseline)
// and then end-to-end at rates 1.0, 0.1 and 0.01: locality::sample_trace
// followed by run_sweep over the sample (SweepSpec::presampled). The
// sampled timings INCLUDE the sampler pass, so the speedups are what a
// caller actually gets. For every rate the bench reports the max absolute
// miss-ratio error across all (policy, capacity) cells; rate 1.0 is
// additionally required to be bit-identical (GC_REQUIRE, not just
// reported). Acceptance headline: >= 5x end-to-end speedup at rate 0.01
// with max error <= 0.02 on a >= 10^8-access trace.
//
// Timings only mean something under GC_FAST_SIM (the `fast` preset). The
// JSON records which configuration ran. Output: aligned table, optional
// CSV, and BENCH_sample.json. See docs/PERF.md.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "locality/sample.hpp"
#include "sim/runner.hpp"
#include "sim/thread_pool.hpp"
#include "traces/synthetic.hpp"
#include "util/contracts.hpp"

namespace gcaching::bench {
namespace {

struct Options {
  std::optional<std::string> csv_dir;
  std::string json_path = "BENCH_sample.json";
  bool quick = false;
  int repeats = 1;
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
    } else if (arg == "--repeats" && a + 1 < argc) {
      opts.repeats = flag_number<int>(arg, argv[++a]);
    } else if (arg == "--quick") {
      opts.quick = true;
      opts.repeats = 1;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: " << argv[0]
                << " [--csv DIR] [--json PATH] [--threads N] [--repeats N]"
                   " [--quick]\n";
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

struct RateResult {
  double rate = 1.0;
  std::uint64_t kept_accesses = 0;
  double seconds = 0.0;
  double speedup = 0.0;
  double max_err = 0.0;
  bool bit_identical = false;
};

void write_json(const Options& opts, const Workload& w,
                const std::vector<std::string>& policies,
                std::size_t num_capacities, std::size_t threads,
                double exact_s, const std::vector<RateResult>& rates) {
  std::ofstream out(opts.json_path);
  GC_REQUIRE(out.good(), "cannot open " + opts.json_path + " for writing");
  out << "{\n"
      << "  \"bench\": \"sample\",\n"
      << provenance_json_lines()
      << "  \"gc_fast_sim\": " << (kHotChecksEnabled ? "false" : "true")
      << ",\n"
      << "  \"quick\": " << (opts.quick ? "true" : "false") << ",\n"
      << "  \"repeats\": " << opts.repeats << ",\n"
      << "  \"workload\": \"" << w.name << "\",\n"
      << "  \"accesses\": " << w.trace.size() << ",\n"
      << "  \"policies\": [";
  for (std::size_t i = 0; i < policies.size(); ++i)
    out << "\"" << policies[i] << "\"" << (i + 1 < policies.size() ? ", " : "");
  out << "],\n"
      << "  \"num_capacities\": " << num_capacities << ",\n"
      << "  \"threads\": " << threads << ",\n"
      << "  \"exact_seconds\": " << exact_s << ",\n"
      << "  \"rates\": [\n";
  for (std::size_t i = 0; i < rates.size(); ++i) {
    const RateResult& r = rates[i];
    out << "    {\"rate\": " << r.rate
        << ", \"kept_accesses\": " << r.kept_accesses
        << ", \"seconds\": " << r.seconds << ", \"speedup\": " << r.speedup
        << ", \"max_abs_miss_rate_error\": " << r.max_err
        << ", \"bit_identical\": " << (r.bit_identical ? "true" : "false")
        << "}" << (i + 1 < rates.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

int run(int argc, char** argv) {
  const Options opts = parse(argc, argv);
  BenchOptions table_opts;
  table_opts.csv_dir = opts.csv_dir;
  table_opts.quick = opts.quick;

  // Rank-scrambled zipf: the regime spatial sampling is built for — the
  // popularity head lands in uniformly random blocks, so no single block's
  // access share rivals the sampling rate (zipf_items would pack ~the whole
  // head into block 0; see docs/PERF.md). theta 0.5 over 2^20 items gives
  // a long MRC with the heaviest block well under the 1% rate.
  const std::size_t len = opts.quick ? 4'000'000 : 100'000'000;
  std::cout << "generating " << len << "-access zipf-scramble trace...\n";
  const std::vector<Workload> workloads = {
      traces::zipf_scramble(1u << 20, 16, len, 0.5, 42)};
  const Workload& w = workloads[0];

  sim::SweepSpec spec;
  spec.workloads = &workloads;
  spec.policy_specs = {"item-lru", "block-lru", "iblp"};
  spec.capacities = {8192, 16384, 32768, 65536, 131072, 262144, 524288};
  spec.threads = opts.threads;
  const std::size_t threads = ThreadPool(opts.threads).num_threads();

  std::cout << "exact sweep (" << spec.policy_specs.size() << " policies x "
            << spec.capacities.size() << " capacities)...\n";
  double exact_s = 1e300;
  std::vector<sim::SweepCell> exact;
  for (int rep = 0; rep < opts.repeats; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    exact = sim::run_sweep(spec);
    exact_s = std::min(exact_s, seconds_since(t0));
  }

  TableSink table(table_opts,
                  "Sampled sweep vs exact (end-to-end, min of repeats)",
                  "sample_rates",
                  {"rate", "kept", "seconds", "speedup", "max_err",
                   "identical"});
  table.add_row({"1 (exact)", fmti(w.trace.size()), fmt(exact_s), "1.00",
                 "0", "yes"});

  std::vector<RateResult> results;
  for (const double rate : {1.0, 0.1, 0.01}) {
    locality::SampleConfig cfg;
    cfg.rate = rate;
    cfg.seed = 42;
    RateResult r;
    r.rate = rate;
    double secs = 1e300;
    std::vector<sim::SweepCell> sampled;
    for (int rep = 0; rep < opts.repeats; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      locality::SampledTrace s =
          locality::sample_trace(*w.map, w.trace.accesses(), cfg);
      r.kept_accesses = s.accesses.size();
      sim::SweepSpec sampled_spec = spec;
      sampled_spec.presampled = {{s.realized_rate, s.total_accesses}};
      const std::vector<Workload> sample = {
          locality::make_sampled_workload(w, std::move(s))};
      sampled_spec.workloads = &sample;
      sampled = sim::run_sweep(sampled_spec);
      secs = std::min(secs, seconds_since(t0));
    }
    GC_REQUIRE(sampled.size() == exact.size(), "sweep size mismatch");

    r.seconds = secs;
    r.speedup = exact_s / secs;
    r.bit_identical = true;
    for (std::size_t i = 0; i < exact.size(); ++i) {
      r.max_err = std::max(r.max_err,
                           std::abs(sampled[i].stats.miss_rate() -
                                    exact[i].stats.miss_rate()));
      r.bit_identical =
          r.bit_identical && sampled[i].stats == exact[i].stats;
    }
    // Rate 1.0 must not merely be close: the accept-all filter keeps every
    // access and the identity rescale must reproduce exact runs bit for
    // bit. This is the same guarantee tests/test_sample.cpp pins at unit
    // scale, re-checked here at bench scale.
    if (rate >= 1.0)
      GC_REQUIRE(r.bit_identical, "rate-1.0 sweep diverged from exact");
    results.push_back(r);
    table.add_row({fmt(rate, 2), fmti(r.kept_accesses), fmt(r.seconds),
                   fmt(r.speedup, 2), fmt(r.max_err, 4),
                   r.bit_identical ? "yes" : "no"});
  }
  table.flush();

  write_json(opts, w, spec.policy_specs, spec.capacities.size(), threads,
             exact_s, results);
  std::cout << "wrote " << opts.json_path << "\n";
  return 0;
}

}  // namespace
}  // namespace gcaching::bench

int main(int argc, char** argv) { return gcaching::bench::run(argc, argv); }
