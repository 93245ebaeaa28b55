// gcsim — command-line front end for the gcaching library.
//
//   gcsim generate  --kind KIND [kind options] --out FILE
//   gcsim simulate  --workload FILE --capacity N --policy SPEC [--policy ..]
//                   [--obs DIR] [--obs-window N]
//   gcsim sweep     --workload FILE --policies A,B,.. --capacities N,M,..
//                   [--threads T] [--csv FILE] [--obs DIR] [--progress]
//   gcsim gcached   --workload FILE --capacity N [--policy SPEC]
//                   [--shards S] [--threads N] [--ops N] [--fill-us F]
//                   [--arrival closed|poisson] [--rate OPS]
//                   [--metrics-out FILE] [--mon-jsonl FILE] [--perf]
//   gcsim profile   --workload FILE [--windows N1,N2,..]
//   gcsim adversary --type item|block|general --policy SPEC
//                   --k N --h N --B N [--phases P] [--save FILE]
//   gcsim opt       --workload FILE --capacity N [--exact]
//   gcsim bounds    --k N --h N --B N [--i N --b N]
//
// Everything the library can do, scriptable. Run `gcsim help` for details.
// An option the subcommand never reads is an error (exit 2), so a typo or
// a stale flag never runs silently with the defaults.
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "bounds/competitive.hpp"
#include "bounds/iblp_upper.hpp"
#include "bounds/partition.hpp"
#include "core/simulator.hpp"
#include "core/trace_io.hpp"
#include "gcached/gcached.hpp"
#include "gcached/loadgen.hpp"
#include "hierarchy/hierarchy.hpp"
#include "locality/concave.hpp"
#include "locality/mrc.hpp"
#include "locality/poly_fit.hpp"
#include "locality/sample.hpp"
#include "locality/trace_stats.hpp"
#include "locality/window_profile.hpp"
#include "obs/gcmon.hpp"
#include "obs/obs.hpp"
#include "obs/timeline.hpp"
#include "offline/exact_opt.hpp"
#include "offline/opt_bounds.hpp"
#include "offline/opt_portfolio.hpp"
#include "policies/factory.hpp"
#include "sim/runner.hpp"
#include "traces/address_trace.hpp"
#include "traces/adversary.hpp"
#include "traces/layout.hpp"
#include "traces/locality_trace.hpp"
#include "traces/synthetic.hpp"
#include "util/contracts.hpp"
#include "util/csv.hpp"
#include "util/parse.hpp"
#include "util/table.hpp"

namespace gcaching::cli {
namespace {

/// Parses one numeric value with the shared rule of util/parse.hpp; a value
/// it refuses exits 2 naming `what` (a flag, or a field of one). Every real
/// value gcsim reads is a size, a rate, a weight or a cost, so a negative
/// one is refused too.
template <typename T>
T number(std::string_view what, std::string_view raw) {
  const std::optional<T> v = parse_number<T>(raw);
  if (v && !(std::is_floating_point_v<T> && std::signbit(*v))) return *v;
  std::cerr << "invalid "
            << (std::is_floating_point_v<T> ? "number" : "integer") << " for "
            << what << ": '" << raw << "'\n";
  std::exit(2);
}

// ---------------------------------------------------------------------------
// Tiny argument parser: --key value pairs, repeated keys accumulate. A few
// keys are bare flags that consume no value. Every lookup marks its key as
// read, so reject_unread() can name the options a subcommand ignored; a
// lookup of a new key after that check is a bug in the subcommand (its
// option would have been refused) and aborts.
// ---------------------------------------------------------------------------

class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int a = first; a < argc; ++a) {
      std::string key = argv[a];
      if (key.rfind("--", 0) != 0) {
        std::cerr << "unexpected argument: " << key << "\n";
        std::exit(2);
      }
      key = key.substr(2);
      if (is_flag(key)) {
        values_[key].push_back("1");
        continue;
      }
      if (a + 1 >= argc) {
        std::cerr << "missing value for --" << key << "\n";
        std::exit(2);
      }
      values_[key].push_back(argv[++a]);
    }
  }

  bool has(const std::string& key) const {
    mark_read(key);
    return values_.count(key) > 0;
  }

  std::string get(const std::string& key,
                  std::optional<std::string> fallback = {}) const {
    mark_read(key);
    const auto it = values_.find(key);
    if (it != values_.end()) return it->second.back();
    if (fallback) return *fallback;
    std::cerr << "missing required option --" << key << "\n";
    std::exit(2);
  }

  std::vector<std::string> get_all(const std::string& key) const {
    mark_read(key);
    const auto it = values_.find(key);
    return it == values_.end() ? std::vector<std::string>{} : it->second;
  }

  std::uint64_t get_u64(const std::string& key,
                        std::optional<std::uint64_t> fallback = {}) const {
    if (!has(key) && fallback) return *fallback;
    return number<std::uint64_t>("--" + key, get(key));
  }

  /// Signed integer, so `--shards -4` can be validated as -4 rather than
  /// silently becoming 2^64-4.
  long long get_i64(const std::string& key,
                    std::optional<long long> fallback = {}) const {
    if (!has(key) && fallback) return *fallback;
    return number<long long>("--" + key, get(key));
  }

  double get_f64(const std::string& key,
                 std::optional<double> fallback = {}) const {
    if (!has(key) && fallback) return *fallback;
    return number<double>("--" + key, get(key));
  }

  /// Comma-separated unsigned integers. Every token, empty ones included,
  /// goes through the checked parse, so `64,,128` and `64,` fail too.
  std::vector<std::size_t> get_sizes(const std::string& key) const {
    const std::string raw = get(key);
    std::vector<std::size_t> out;
    for (const std::string_view token : split_list(raw))
      out.push_back(number<std::uint64_t>("--" + key, token));
    return out;
  }

  /// Exits 2 naming the first given option that no lookup has read yet.
  /// Subcommands call this once they have read every option they use and
  /// before they do any work.
  void reject_unread(const std::string& cmd) const {
    checked_ = true;
    for (const auto& entry : values_) {
      if (read_.count(entry.first) == 0) {
        std::cerr << "gcsim " << cmd << ": unknown or unused option --"
                  << entry.first << " (see `gcsim help`)\n";
        std::exit(2);
      }
    }
  }

 private:
  void mark_read(const std::string& key) const {
    if (checked_ && read_.count(key) == 0) {
      std::cerr << "gcsim: internal error: option --" << key
                << " looked up after the unused-option check\n";
      std::abort();
    }
    read_.insert(key);
  }

  static bool is_flag(const std::string& key) {
    return key == "progress" || key == "trace-bin" || key == "perf";
  }

  std::map<std::string, std::vector<std::string>> values_;
  mutable std::set<std::string> read_;
  mutable bool checked_ = false;
};

/// `--policies` as policy specs. A token with '=' and no ':' continues the
/// previous spec's parameters, so `iblp:i=16,b=48` is one spec: policy
/// names never contain '='. An empty token, or parameters with no spec
/// before them, exit 2.
std::vector<std::string> split_policies(std::string_view raw) {
  std::vector<std::string> specs;
  for (const std::string_view token : split_list(raw)) {
    const bool params = token.find('=') != std::string_view::npos &&
                        token.find(':') == std::string_view::npos;
    if (token.empty() || (params && specs.empty())) {
      std::cerr << "invalid policy spec for --policies: '" << token << "'\n";
      std::exit(2);
    }
    if (params)
      specs.back().append(",").append(token);
    else
      specs.emplace_back(token);
  }
  return specs;
}

// ---------------------------------------------------------------------------
// Observability sinks (`--obs DIR`) and `--progress`
// ---------------------------------------------------------------------------

std::string sanitize_for_filename(const std::string& s) {
  std::string out;
  for (const char c : s)
    out += std::isalnum(static_cast<unsigned char>(c)) != 0 ? c : '_';
  return out;
}

/// Installs a process-wide TraceLog for the command's lifetime. `write()`,
/// on the command's normal return path, saves DIR/trace.json. Constructed
/// only when `--obs DIR` is given — and that requires a build whose
/// GC_OBS_* span macros are live.
class ObsSinks {
 public:
  explicit ObsSinks(const std::string& dir) : dir_(dir), scope_(log_) {
    std::filesystem::create_directories(dir_);
  }
  ObsSinks(const ObsSinks&) = delete;
  ObsSinks& operator=(const ObsSinks&) = delete;

  const std::string& dir() const { return dir_; }

  /// Throws std::runtime_error("cannot write <path>"), which main() turns
  /// into `error: ...` and exit status 1.
  void write() const {
    log_.write_chrome_trace_file(dir_ + "/trace.json");
    std::cout << "obs: wrote " << dir_ << "/trace.json (" << log_.size()
              << " events)\n";
  }

 private:
  std::string dir_;
  obs::TraceLog log_;
  obs::TraceLogScope scope_;
};

/// `--obs` is rejected loudly in builds whose hooks are compiled out: a
/// silently empty trace would read as "nothing happened".
void require_obs_build(const Args& args) {
  if (args.has("obs") && !obs::kObsEnabled) {
    std::cerr << "--obs requires a build with GCACHING_OBS=ON (the default "
                 "and `obs` presets; the `fast` preset compiles telemetry "
                 "out)\n";
    std::exit(2);
  }
}

/// stderr progress line for long sweeps: "\rsweep: done/total (ETA ..s)",
/// throttled to ~10 updates/s. Thread-safe (called from pool workers).
class ProgressPrinter {
 public:
  void report(std::size_t done, std::size_t total) {
    const auto now = std::chrono::steady_clock::now();
    std::lock_guard<std::mutex> lock(mu_);
    const bool final = done >= total;
    if (!final && now - last_print_ < std::chrono::milliseconds(100)) return;
    last_print_ = now;
    const double elapsed =
        std::chrono::duration<double>(now - start_).count();
    std::cerr << "\rsweep: " << done << "/" << total << " tasks";
    if (final) {
      std::cerr << " (done in " << TextTable::fmt(elapsed, 1) << "s)\n";
    } else if (done > 0) {
      const double eta =
          elapsed / static_cast<double>(done) *
          static_cast<double>(total - done);
      std::cerr << " (ETA " << TextTable::fmt(eta, 1) << "s)   ";
    }
  }

 private:
  std::mutex mu_;
  std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
  std::chrono::steady_clock::time_point last_print_;
};

// ---------------------------------------------------------------------------
// Subcommands
// ---------------------------------------------------------------------------

int cmd_generate(const Args& args) {
  const std::string kind = args.get("kind");
  const std::size_t length = args.get_u64("length", 100000);
  const std::size_t B = args.get_u64("B", 16);
  const std::uint64_t seed = args.get_u64("seed", 1);
  Workload w;
  if (kind == "zipf-items") {
    w = traces::zipf_items(args.get_u64("items", 65536), B, length,
                           args.get_f64("theta", 0.9), seed);
  } else if (kind == "zipf-scramble") {
    w = traces::zipf_scramble(args.get_u64("items", 65536), B, length,
                              args.get_f64("theta", 0.9), seed);
  } else if (kind == "zipf-blocks") {
    w = traces::zipf_blocks(args.get_u64("blocks", 4096), B, length,
                            args.get_f64("theta", 0.9),
                            args.get_u64("span", B / 2), seed);
  } else if (kind == "seq-scan") {
    w = traces::sequential_scan(args.get_u64("items", 65536), B, length);
  } else if (kind == "strided-scan") {
    w = traces::strided_scan(args.get_u64("items", 65536), B, length,
                             args.get_u64("stride", B));
  } else if (kind == "ws-phases") {
    w = traces::working_set_phases(args.get_u64("items", 65536), B, length,
                                   args.get_u64("ws", 1024),
                                   args.get_u64("phase", 10000), seed);
  } else if (kind == "hot-item") {
    w = traces::hot_item_per_block(args.get_u64("blocks", 4096), B, length,
                                   args.get_u64("hot", 4096),
                                   args.get_f64("cold", 0.05), seed);
  } else if (kind == "scan-hotset") {
    w = traces::scan_with_hotset(args.get_u64("blocks", 4096), B, length,
                                 args.get_f64("scan", 0.3),
                                 args.get_f64("theta", 0.9),
                                 args.get_u64("span", B / 2), seed);
  } else if (kind == "stack-distance") {
    w = traces::stack_distance_workload(args.get_u64("blocks", 4096), B,
                                        args.get_f64("p", 2.0),
                                        args.get_f64("gamma", 4.0), length,
                                        seed);
  } else if (kind == "pointer-chase") {
    w = traces::pointer_chase(args.get_u64("blocks", 4096), B, length,
                              args.get_f64("intra", 0.5),
                              args.get_f64("restart", 0.001), seed);
  } else {
    std::cerr << "unknown --kind " << kind
              << " (zipf-items|zipf-scramble|zipf-blocks|seq-scan|"
                 "strided-scan|ws-phases|hot-item|scan-hotset|"
                 "stack-distance|pointer-chase)\n";
    return 2;
  }
  const std::string out = args.get("out");
  // `--trace-bin` writes the compact binary gctrace format (uniform
  // partitions only; ~10x smaller and mmap-streamable) instead of text.
  const bool trace_bin = args.has("trace-bin");
  args.reject_unread("generate");
  if (trace_bin)
    save_trace_bin_file(out, w);
  else
    save_workload_file(out, w);
  std::cout << "wrote " << out << ": " << w.name << " ("
            << w.trace.size() << " accesses, " << w.map->num_items()
            << " items, B = " << w.map->max_block_size() << ")\n";
  return 0;
}

/// Load a workload from either on-disk format: binary gctrace files are
/// detected by magic and materialized; everything else parses as text.
Workload load_any_workload(const std::string& path) {
  if (is_trace_bin_file(path)) return TraceView(path).materialize();
  return load_workload_file(path);
}

// `--mode fast` (default) runs the devirtualized fast-path engine;
// `--mode verify` forces the step-wise verifying Simulation. Results are
// bit-identical; verify mode is for debugging policies / the harness.
bool use_fast_mode(const Args& args) {
  const std::string mode = args.get("mode", std::string("fast"));
  if (mode == "fast") return true;
  if (mode == "verify") return false;
  std::cerr << "unknown --mode " << mode << " (fast|verify)\n";
  std::exit(2);
}

int cmd_simulate(const Args& args) {
  Workload w = load_any_workload(args.get("workload"));
  const std::size_t capacity = args.get_u64("capacity");
  const bool fast = use_fast_mode(args);
  if (fast) w.trace.precompute_block_ids(*w.map);
  auto specs = args.get_all("policy");
  if (specs.empty()) specs = {"item-lru", "block-lru", "iblp"};
  // --obs-window is read only with --obs, so alone it is refused as unused.
  const bool want_obs = args.has("obs");
  const std::uint64_t obs_window =
      want_obs ? args.get_u64("obs-window", 0) : 0;
  require_obs_build(args);
  args.reject_unread("simulate");
  std::optional<ObsSinks> sinks;
  if (want_obs) sinks.emplace(args.get("obs"));
  std::cout << "workload: " << w.name << " (" << w.trace.size()
            << " accesses), capacity " << capacity
            << (fast ? ", fast engine" : ", verifying engine") << "\n";
  TextTable table({"policy", "misses", "miss rate", "temporal", "spatial",
                   "loads/miss", "wasted"});
  for (const auto& spec : specs) {
    auto policy = make_policy(spec, capacity);
    SimStats s;
    if (fast) s = simulate_fast_spec(spec, w, capacity);
    if (sinks) {
      // A timeline is a stepped verifying run of the fresh policy, harvested
      // into a gcmon Monitor once per window: its last snapshot is the
      // verify-mode row, and in fast mode it must equal the fast engine's
      // row (a free cross-engine check).
      obs::MonitorConfig mcfg;
      mcfg.jsonl_path = sinks->dir() + "/timeline-" +
                        sanitize_for_filename(spec) + ".jsonl";
      obs::Monitor monitor(mcfg);
      const std::vector<obs::Snapshot> windows = obs::record_timeline(
          *w.map, w.trace, *policy, capacity, obs_window, monitor);
      if (const std::string err = monitor.export_error(); !err.empty()) {
        std::cerr << "error: " << err << "\n";
        return 1;
      }
      const SimStats last =
          windows.empty() ? SimStats{} : windows.back().totals.stats;
      if (!fast)
        s = last;
      else if (s != last)
        throw std::runtime_error("timeline of " + spec +
                                 " diverged from the fast engine's row");
      std::cout << "obs: wrote " << mcfg.jsonl_path << " ("
                << windows.size() << " windows of "
                << (windows.empty() ? 0 : windows[0].totals.stats.accesses)
                << ")\n";
    } else if (!fast) {
      s = simulate(w, *policy, capacity);
    }
    table.add_row({policy->name(), TextTable::fmt_int(s.misses),
                   TextTable::fmt(s.miss_rate(), 4),
                   TextTable::fmt_int(s.temporal_hits),
                   TextTable::fmt_int(s.spatial_hits),
                   TextTable::fmt(s.loads_per_miss(), 2),
                   TextTable::fmt_int(s.wasted_sideloads)});
  }
  std::cout << table;
  if (sinks) sinks->write();
  return 0;
}

int cmd_sweep(const Args& args) {
  // Sampling (--sample-rate R | --sample-size N, plus --sample-seed) runs
  // the whole sweep on a SHARDS-style block-consistent sample: gcsim
  // samples each workload up front — a binary gctrace's records are read
  // straight off the mapped file, so the full trace is never materialized —
  // and the runner scales capacities / rescales counters via
  // spec.presampled.
  if (args.has("sample-rate") && args.has("sample-size")) {
    std::cerr << "--sample-rate and --sample-size are exclusive; give one\n";
    return 2;
  }
  locality::SampleConfig sample_cfg;
  sample_cfg.rate = args.get_f64("sample-rate", 1.0);
  sample_cfg.max_blocks = args.get_u64("sample-size", 0);
  if (sample_cfg.rate <= 0.0 || sample_cfg.rate > 1.0) {
    std::cerr << "--sample-rate must be in (0, 1]\n";
    return 2;
  }
  const bool sampling = sample_cfg.rate < 1.0 || sample_cfg.max_blocks > 0;
  // --sample-seed is read only when sampling, so alone it is refused as
  // unused.
  if (sampling) sample_cfg.seed = args.get_u64("sample-seed", 1);

  const std::vector<std::string> paths = args.get_all("workload");
  if (paths.empty()) {
    std::cerr << "need at least one --workload\n";
    return 2;
  }
  sim::SweepSpec spec;
  spec.policy_specs = split_policies(args.get("policies"));
  spec.capacities = args.get_sizes("capacities");
  spec.threads = args.get_u64("threads", 0);
  spec.use_fast_path = use_fast_mode(args);
  const std::string csv_path = args.get("csv", std::string());
  const bool progress = args.has("progress");
  require_obs_build(args);
  args.reject_unread("sweep");

  std::vector<Workload> workloads;
  for (const std::string& path : paths) {
    if (!sampling) {
      workloads.push_back(load_any_workload(path));
      continue;
    }
    // Both formats give the sampler a map and its accesses; `source` holds
    // the map and name (and, for a text file, the trace).
    std::optional<TraceView> view;
    Workload source;
    std::span<const ItemId> accesses;
    if (is_trace_bin_file(path)) {
      view.emplace(path);
      source.map = view->make_map();
      source.name = view->name();
      accesses = view->accesses();
    } else {
      source = load_workload_file(path);
      accesses = source.trace.accesses();
    }
    locality::SampledTrace s =
        locality::sample_trace(*source.map, accesses, sample_cfg);
    std::cerr << "sample: " << path << " kept " << s.accesses.size() << "/"
              << s.total_accesses << " accesses (" << s.sampled_blocks
              << " blocks, rate " << s.realized_rate << ")\n";
    spec.presampled.push_back({s.realized_rate, s.total_accesses});
    workloads.push_back(locality::make_sampled_workload(source, std::move(s)));
  }
  spec.workloads = &workloads;
  std::optional<ObsSinks> sinks;
  if (args.has("obs")) sinks.emplace(args.get("obs"));
  std::shared_ptr<ProgressPrinter> printer;
  if (progress) {
    printer = std::make_shared<ProgressPrinter>();
    spec.progress = [printer](std::size_t done, std::size_t total) {
      printer->report(done, total);
    };
  }
  const auto cells = sim::run_sweep(spec);

  TextTable table({"workload", "policy", "capacity", "misses", "miss rate",
                   "spatial share"});
  std::optional<CsvWriter> csv;
  if (!csv_path.empty())
    csv.emplace(csv_path, std::vector<std::string>{
                              "workload", "policy", "capacity", "misses",
                              "miss_rate", "spatial_share"});
  for (const auto& cell : cells) {
    const std::vector<std::string> row = {
        workloads[cell.workload_index].name,
        spec.policy_specs[cell.policy_index],
        TextTable::fmt_int(cell.capacity),
        TextTable::fmt_int(cell.stats.misses),
        TextTable::fmt(cell.stats.miss_rate(), 4),
        TextTable::fmt(cell.stats.spatial_hit_share(), 3)};
    table.add_row(row);
    if (csv) csv->add_row(row);
  }
  std::cout << table;
  if (sinks) sinks->write();
  return 0;
}

int cmd_gcached(const Args& args) {
  const std::string workload_path = args.get("workload");
  const long long shards = args.get_i64("shards", 1);
  const long long threads = args.get_i64("threads", 1);
  gcached::GcachedConfig cfg;
  cfg.capacity = args.get_u64("capacity");
  const double fill_us = args.get_f64("fill-us", 0.0);
  const std::string spec = args.get("policy", std::string("item-lru"));

  gcached::LoadSpec load;
  load.total_ops = args.get_u64("ops", 0);  // 0 = one trace pass
  load.seed = args.get_u64("seed", 1);
  load.perf = args.has("perf");
  // --arrival poisson switches the clients open-loop at --rate ops/sec
  // aggregate (latency then includes queuing delay; see loadgen.hpp).
  const std::string arrival = args.get("arrival", std::string("closed"));
  const double rate = args.get_f64("rate", 0.0);
  if (arrival == "poisson") {
    load.arrival = gcached::Arrival::kPoisson;
    load.rate_ops_per_sec = rate;
    if (load.rate_ops_per_sec <= 0.0) {
      std::cerr << "--arrival poisson needs --rate OPS_PER_SEC > 0\n";
      return 2;
    }
  } else if (arrival != "closed") {
    std::cerr << "unknown --arrival " << arrival << " (closed|poisson)\n";
    return 2;
  }

  // Live monitoring (gcmon): --metrics-out FILE rewrites a Prometheus text
  // exposition atomically every --mon-interval-ms; --mon-jsonl FILE starts
  // empty and gains one snapshot object per harvest. Works in every build:
  // the monitor reads each shard's own SimStats. A file that cannot be
  // written fails the run.
  obs::MonitorConfig mcfg;
  mcfg.interval =
      std::chrono::milliseconds(args.get_u64("mon-interval-ms", 50));
  mcfg.prometheus_path = args.get("metrics-out", std::string());
  mcfg.jsonl_path = args.get("mon-jsonl", std::string());
  const bool want_mon = args.has("metrics-out") || args.has("mon-jsonl");
  require_obs_build(args);
  args.reject_unread("gcached");
  const std::string bad = gcached::validate_gcached_request(shards, threads);
  if (!bad.empty()) {
    std::cerr << "gcached: " << bad << "\n";
    return 2;
  }
  const std::optional<std::uint64_t> fill_ns = gcached::fill_us_to_ns(fill_us);
  if (!fill_ns) {
    std::cerr << "gcached: --fill-us must be a finite, non-negative number "
                 "of microseconds below 2^63 ns (got "
              << fill_us << ")\n";
    return 2;
  }
  cfg.fill_latency_ns = *fill_ns;
  cfg.num_shards = static_cast<std::size_t>(shards);
  load.threads = static_cast<std::size_t>(threads);

  Workload w = load_any_workload(workload_path);
  w.trace.precompute_block_ids(*w.map);
  const auto cache = gcached::make_concurrent_cache(spec, w.map, cfg);

  std::optional<ObsSinks> sinks;
  if (args.has("obs")) sinks.emplace(args.get("obs"));
  std::optional<obs::Monitor> monitor;
  if (want_mon) {
    monitor.emplace(mcfg);
    monitor->attach_shards([&cache] { return cache->shard_counters(); });
    monitor->start();
    load.monitor = &*monitor;
  }

  std::cout << "workload: " << w.name << " (" << w.trace.size()
            << " accesses), capacity " << cfg.capacity << ", policy " << spec
            << ", " << cfg.num_shards << " shard(s), " << load.threads
            << " client thread(s)\n";
  const auto res =
      gcached::run_load(*cache, w.trace, w.trace.block_ids(), load);

  if (monitor) {
    monitor->stop();
    if (const std::string err = monitor->export_error(); !err.empty()) {
      std::cerr << "error: " << err << "\n";
      return 1;
    }
  }

  TextTable table({"metric", "value"});
  table.add_row({"ops", TextTable::fmt_int(res.ops)});
  table.add_row({"seconds", TextTable::fmt(res.seconds, 3)});
  table.add_row({"ops/sec",
                 TextTable::fmt_int(
                     static_cast<std::uint64_t>(res.ops_per_sec))});
  table.add_row(
      {"latency samples", TextTable::fmt_int(res.latency_samples)});
  table.add_row({"p50 us", TextTable::fmt(res.p50_us, 1)});
  table.add_row({"p99 us", TextTable::fmt(res.p99_us, 1)});
  table.add_row({"p999 us", TextTable::fmt(res.p999_us, 1)});
  table.add_row({"miss rate", TextTable::fmt(res.stats.miss_rate(), 4)});
  table.add_row({"spatial share",
                 TextTable::fmt(res.stats.spatial_hit_share(), 3)});
  // AMAT folds fill latency and delayed-hit waits into one per-access cost;
  // with --fill-us 0 it is 0 and the delayed counters stay 0 by design.
  table.add_row({"AMAT us",
                 TextTable::fmt(res.stats.amat_ns(cfg.fill_latency_ns) * 1e-3,
                                2)});
  table.add_row({"delayed hits", TextTable::fmt_int(res.stats.delayed_hits)});
  table.add_row(
      {"free delayed hits", TextTable::fmt_int(res.stats.free_delayed_hits)});
  if (load.arrival == gcached::Arrival::kPoisson) {
    table.add_row({"offered ops/sec",
                   TextTable::fmt_int(static_cast<std::uint64_t>(
                       res.offered_ops_per_sec))});
    table.add_row({"achieved ops/sec",
                   TextTable::fmt_int(
                       static_cast<std::uint64_t>(res.ops_per_sec))});
  }
  table.add_row({"lock acquisitions", TextTable::fmt_int(res.lock_acquisitions)});
  table.add_row({"lock-free hits", TextTable::fmt_int(res.lockfree_hits)});
  table.add_row({"lock contended", TextTable::fmt_int(res.lock_contended)});
  table.add_row({"backoff rounds", TextTable::fmt_int(res.backoff_rounds)});
  if (res.perf.valid) {
    table.add_row({"cycles", TextTable::fmt_int(res.perf.cycles)});
    table.add_row({"instructions", TextTable::fmt_int(res.perf.instructions)});
    table.add_row(
        {"IPC", TextTable::fmt(res.perf.cycles > 0
                                   ? static_cast<double>(res.perf.instructions) /
                                         static_cast<double>(res.perf.cycles)
                                   : 0.0,
                               2)});
    table.add_row({"LLC misses", TextTable::fmt_int(res.perf.llc_misses)});
    table.add_row(
        {"ctx switches", TextTable::fmt_int(res.perf.context_switches)});
  }
  std::cout << table;
  if (sinks) sinks->write();
  return 0;
}

int cmd_profile(const Args& args) {
  const Workload w = load_workload_file(args.get("workload"));
  std::vector<std::size_t> windows;
  if (args.has("windows")) windows = args.get_sizes("windows");
  args.reject_unread("profile");
  const auto prof = locality::compute_profile(w, windows);
  TextTable table({"window n", "f(n)", "g(n)", "f/g", "f concave-fit"});
  const auto maj = locality::concave_majorant(prof.window_lengths,
                                              prof.max_distinct_items);
  for (std::size_t s = 0; s < prof.window_lengths.size(); ++s)
    table.add_row({TextTable::fmt_int(prof.window_lengths[s]),
                   TextTable::fmt(prof.max_distinct_items[s], 0),
                   TextTable::fmt(prof.max_distinct_blocks[s], 0),
                   TextTable::fmt(prof.spatial_ratio(s), 2),
                   TextTable::fmt(maj[s], 1)});
  std::cout << "workload: " << w.name << "\n" << table;
  const auto fit_f = locality::fit_poly_locality(prof.window_lengths,
                                                 prof.max_distinct_items);
  const auto fit_g = locality::fit_poly_locality(prof.window_lengths,
                                                 prof.max_distinct_blocks);
  const auto ts = locality::compute_trace_stats(w);
  std::cout << "stats: distinct items " << ts.distinct_items << ", blocks "
            << ts.distinct_blocks << ", mean block footprint "
            << TextTable::fmt(ts.mean_block_footprint, 2)
            << ", mean spatial run "
            << TextTable::fmt(ts.mean_spatial_run, 2)
            << ", reuse-distance p50/p90/p99 "
            << ts.reuse_distance_quantiles[0] << "/"
            << ts.reuse_distance_quantiles[1] << "/"
            << ts.reuse_distance_quantiles[2] << "\n";
  std::cout << "fit: f(n) ~ " << TextTable::fmt(fit_f.c, 2) << " n^(1/"
            << TextTable::fmt(fit_f.p, 2) << "), g(n) ~ "
            << TextTable::fmt(fit_g.c, 2) << " n^(1/"
            << TextTable::fmt(fit_g.p, 2)
            << "); spatial ratio at max window "
            << TextTable::fmt(prof.spatial_ratio(
                   prof.window_lengths.size() - 1), 2)
            << "\n";
  return 0;
}

int cmd_mrc(const Args& args) {
  const Workload w = load_workload_file(args.get("workload"));
  std::vector<std::size_t> sizes;
  if (args.has("sizes")) {
    sizes = args.get_sizes("sizes");
  } else {
    for (std::size_t s = w.map->max_block_size();
         s <= std::min<std::size_t>(w.map->num_items(), 1 << 16); s *= 2)
      sizes.push_back(s);
  }
  args.reject_unread("mrc");
  const auto item_curve = locality::lru_mrc(w, sizes);
  const auto block_curve = locality::block_lru_mrc(w, sizes);
  TextTable table({"size (items)", "item-LRU miss ratio",
                   "block-LRU miss ratio"});
  for (std::size_t j = 0; j < sizes.size(); ++j)
    table.add_row({TextTable::fmt_int(sizes[j]),
                   TextTable::fmt(item_curve.miss_ratio(j), 4),
                   TextTable::fmt(block_curve.miss_ratio(j), 4)});
  std::cout << "workload: " << w.name << " (Mattson one-pass curves)\n"
            << table;
  return 0;
}

int cmd_adversary(const Args& args) {
  const std::string type = args.get("type");
  traces::AdversaryOptions opts;
  opts.k = args.get_u64("k");
  opts.h = args.get_u64("h");
  opts.B = args.get_u64("B");
  opts.phases = args.get_u64("phases", 16);
  const std::string spec = args.get("policy");
  const std::string save = args.get("save", std::string());
  args.reject_unread("adversary");
  auto policy = make_policy(spec, opts.k);

  traces::AdversaryResult res;
  if (type == "item")
    res = traces::run_item_adversary(*policy, opts);
  else if (type == "block")
    res = traces::run_block_adversary(*policy, opts);
  else if (type == "general")
    res = traces::run_general_adversary(*policy, opts);
  else {
    std::cerr << "unknown --type " << type << " (item|block|general)\n";
    return 2;
  }
  std::cout << "policy " << policy->name() << " vs " << type
            << " adversary (k=" << opts.k << ", h=" << opts.h
            << ", B=" << opts.B << ", phases=" << opts.phases << ")\n"
            << "  online misses (steady): " << res.online_steady_misses
            << "\n  prescribed OPT (steady): " << res.opt_steady_misses
            << "\n  steady ratio: "
            << TextTable::fmt_ratio(res.steady_ratio()) << "\n";
  if (type == "general")
    std::cout << "  observed a: " << res.max_observed_a << "\n";
  if (!save.empty()) {
    save_workload_file(save, res.workload);
    std::cout << "  captured trace written to " << save << "\n";
  }
  return 0;
}

int cmd_import(const Args& args) {
  traces::AddressTraceFormat fmt;
  const std::string delim = args.get("delim", std::string(" "));
  fmt.delimiter = delim.empty() ? ' ' : delim[0];
  fmt.address_field = args.get_u64("address_field", 0);
  fmt.size_field = args.get_u64("size_field", 1);
  fmt.has_size = args.get_u64("has_size", 1) != 0;
  fmt.item_bytes = args.get_u64("item_bytes", 64);
  fmt.block_items = args.get_u64("B", 32);
  const std::string in = args.get("in");
  const std::string out = args.get("out");
  args.reject_unread("import");
  const Workload w = traces::load_address_trace_file(in, fmt);
  save_workload_file(out, w);
  std::cout << "imported " << in << " -> " << out
            << ": " << w.name << " (" << w.trace.size() << " accesses, "
            << w.map->num_blocks() << " blocks)\n";
  return 0;
}

int cmd_layout(const Args& args) {
  const Workload w = load_workload_file(args.get("workload"));
  const std::size_t B =
      args.get_u64("B", w.map->max_block_size());
  const std::string kind = args.get("kind", std::string("affinity"));
  const std::uint64_t window = args.get_u64("window", 2);
  const std::uint64_t seed = args.get_u64("seed", 1);
  const std::string out_path = args.get("out");
  args.reject_unread("layout");
  std::shared_ptr<BlockMap> map;
  if (kind == "affinity") {
    map = traces::affinity_layout(w.trace, w.map->num_items(), B, window);
  } else if (kind == "random") {
    map = traces::random_layout(w.map->num_items(), B, seed);
  } else {
    std::cerr << "unknown --kind " << kind << " (affinity|random)\n";
    return 2;
  }
  const Workload out = traces::with_layout(w, map, kind + " layout");
  save_workload_file(out_path, out);
  std::cout << "wrote " << out_path << ": " << out.name << " ("
            << out.map->num_blocks() << " blocks, B = "
            << out.map->max_block_size() << ")\n";
  return 0;
}

int cmd_hierarchy(const Args& args) {
  // --level NAME:CAPACITY:POLICY:GRANULARITY:PENALTY  (repeatable, L1
  // first). Policy specs containing ':' are not supported here; use the
  // library API for those.
  const Workload w = load_workload_file(args.get("workload"));
  const auto level_specs = args.get_all("level");
  if (level_specs.empty()) {
    std::cerr << "need at least one --level NAME:CAP:POLICY:GRAN:PENALTY\n";
    return 2;
  }
  std::vector<hierarchy::LevelConfig> levels;
  for (const auto& spec : level_specs) {
    const std::vector<std::string_view> parts = split_list(spec, ':');
    if (parts.size() != 5) {
      std::cerr << "malformed --level " << spec << "\n";
      return 2;
    }
    hierarchy::LevelConfig cfg;
    cfg.name = parts[0];
    cfg.capacity = number<std::uint64_t>("--level CAPACITY", parts[1]);
    cfg.policy_spec = parts[2];
    cfg.map = make_uniform_blocks(
        w.map->num_items(),
        number<std::uint64_t>("--level GRANULARITY", parts[3]));
    cfg.miss_penalty = number<double>("--level PENALTY", parts[4]);
    levels.push_back(std::move(cfg));
  }
  const double probe_cost = args.get_f64("probe_cost", 1.0);
  args.reject_unread("hierarchy");
  hierarchy::HierarchySimulator hs(levels, probe_cost);
  hs.run(w.trace);
  TextTable table({"level", "accesses", "hits", "hit share", "misses"});
  for (std::size_t l = 0; l < hs.num_levels(); ++l) {
    const auto& s = hs.level_stats(l);
    table.add_row({hs.level(l).name, TextTable::fmt_int(s.accesses),
                   TextTable::fmt_int(s.hits),
                   TextTable::fmt(hs.hit_share(l), 3),
                   TextTable::fmt_int(s.misses)});
  }
  std::cout << "workload: " << w.name << "\n" << table
            << "AMAT: " << TextTable::fmt(hs.amat(), 2) << "\n";
  return 0;
}

int cmd_opt(const Args& args) {
  const Workload w = load_workload_file(args.get("workload"));
  const std::size_t capacity = args.get_u64("capacity");
  const bool exact_opt = args.has("exact") && args.get("exact") != "0";
  args.reject_unread("opt");
  const std::uint64_t lower =
      opt_lower_bound(*w.map, w.trace, capacity);
  const auto upper = opt_portfolio_upper(*w.map, w.trace, capacity);
  std::cout << "workload: " << w.name << " (" << w.trace.size()
            << " accesses), capacity " << capacity << "\n"
            << "  OPT lower bound (certified): " << lower << "\n"
            << "  OPT upper bound (portfolio): " << upper.misses << "  ["
            << upper.best_policy << "]\n";
  if (exact_opt) {
    const auto exact = exact_offline_opt(*w.map, w.trace, capacity);
    std::cout << "  OPT exact: " << exact.cost << "  ("
              << exact.states_expanded << " states)\n";
  }
  return 0;
}

int cmd_bounds(const Args& args) {
  const double k = args.get_f64("k");
  const double h = args.get_f64("h");
  const double B = args.get_f64("B");
  const bool given_split = args.has("i") || args.has("b");
  const double i = args.get_f64("i", k / 2);
  const double b = args.get_f64("b", k - i);
  args.reject_unread("bounds");
  TextTable table({"bound", "value"});
  auto add = [&](const std::string& name, double v) {
    table.add_row({name, TextTable::fmt_ratio(v)});
  };
  add("Sleator-Tarjan lower", bounds::sleator_tarjan_lower(k, h));
  add("Item Cache lower (Thm 2)", bounds::item_cache_lower(k, h, B));
  add("Block Cache lower (Thm 3)", bounds::block_cache_lower(k, h, B));
  add("GC lower (best a)", bounds::gc_lower_bound(k, h, B));
  add("  optimal a", bounds::gc_optimal_a(k, h, B));
  const auto part = bounds::iblp_optimal_partition(k, h, B);
  add("IBLP upper, optimal split (Sec 5.3)", part.ratio);
  add("  optimal i", part.item_layer);
  add("  optimal b", part.block_layer);
  if (given_split) {
    add("IBLP upper at given split (Thm 7)",
        bounds::iblp_upper(i, b, h, B));
    add("  numeric LP re-solve", bounds::iblp_upper_numeric(i, b, h, B));
  }
  std::cout << table;
  return 0;
}

int cmd_help() {
  std::cout <<
      R"(gcsim — Granularity-Change Caching simulator

An option the subcommand does not use is an error (exit 2).

subcommands:
  generate   synthesize a workload and write it to a gcworkload file
             --kind zipf-items|zipf-scramble|zipf-blocks|seq-scan|
                    strided-scan|ws-phases|hot-item|scan-hotset|
                    stack-distance|pointer-chase
             --out FILE [--trace-bin] [--length N] [--B N] [--seed N]
             [kind options: --items --blocks --theta --span --stride --ws
             --phase --hot --cold --scan --p --gamma]
             --trace-bin writes the compact binary gctrace format
             (mmap-streamable; see docs/FORMATS.md)
  simulate   run policies over a workload file (text or binary)
             --workload FILE --capacity N [--policy SPEC]...
             [--mode fast|verify] [--obs DIR] [--obs-window N]
  sweep      policy x capacity grid, in parallel
             --workload FILE [--workload FILE]... --policies A,B,..
             --capacities N,M,.. [--threads T] [--csv FILE]
             [--mode fast|verify] [--obs DIR] [--progress]
             [--sample-rate R | --sample-size N] [--sample-seed S]
             a spec keeps its parameters: --policies item-lru,iblp:i=16,b=48
             sampling sweeps a SHARDS-style hash sample of each workload
             (block-consistent; binary inputs stream without materializing)
             and reports rescaled full-trace estimates — see docs/PERF.md
  gcached    replay a workload through the concurrent sharded runtime with
             closed-loop or poisson client threads — see docs/CONCURRENCY.md
             --workload FILE --capacity N [--policy SPEC] [--shards S]
             [--threads N] [--ops N] [--fill-us F]
             [--arrival closed|poisson] [--rate OPS] [--seed S]
             [--obs DIR] [--metrics-out FILE] [--mon-jsonl FILE]
             [--mon-interval-ms M] [--perf]
             a miss waits --fill-us with its shard unlocked; each client
             thread has one fill register, so up to --threads fills
             overlap in one shard and misses on an in-flight block wait
             for it as delayed hits
             live monitoring (gcmon): --metrics-out rewrites a Prometheus
             exposition atomically every M ms, --mon-jsonl writes one
             snapshot per harvest (the file starts empty), --perf
             captures per-thread hardware
             counters — see docs/OBSERVABILITY.md

observability (GCACHING_OBS=ON builds; see docs/OBSERVABILITY.md):
  --obs DIR        write telemetry sinks into DIR: trace.json (Chrome
                   trace-event spans) and (simulate only)
                   timeline-<policy>.jsonl, one cumulative gcmon snapshot
                   per window (consecutive lines give the deltas)
  --obs-window N   accesses per timeline window (0 = auto, ~256 windows)
  --progress       live sweep progress with ETA on stderr
  profile    measure f(n)/g(n) locality profiles and power-law fits
             --workload FILE [--windows N1,N2,..]
  mrc        exact LRU miss-ratio curves (item and block granularity)
             --workload FILE [--sizes N,M,..]
  import     convert an (address, size) trace file to a gcworkload
             --in FILE --out FILE [--delim C] [--address_field N]
             [--size_field N] [--has_size 0|1] [--item_bytes N] [--B N]
  layout     re-assign items to blocks and write the relaid workload
             --workload FILE --out FILE [--kind affinity|random] [--B N]
             [--window N] [--seed N]
  hierarchy  simulate a multi-level hierarchy over a workload
             --workload FILE --level NAME:CAP:POLICY:GRAN:PENALTY ...
             [--probe_cost C]
  adversary  run a lower-bound construction against a live policy
             --type item|block|general --policy SPEC --k N --h N --B N
             [--phases P] [--save FILE]
  opt        bracket the offline optimum of a workload
             --workload FILE --capacity N [--exact 1]
  bounds     print every competitive bound for a geometry
             --k N --h N --B N [--i N --b N]

policy specs: )";
  bool first = true;
  for (const auto& name : known_policy_names()) {
    std::cout << (first ? "" : ", ") << name;
    first = false;
  }
  std::cout << "\n";
  return 0;
}

}  // namespace
}  // namespace gcaching::cli

int main(int argc, char** argv) {
  using namespace gcaching::cli;
  if (argc < 2) return cmd_help();
  const std::string cmd = argv[1];
  try {
    if (cmd == "help" || cmd == "--help" || cmd == "-h") return cmd_help();
    const Args args(argc, argv, 2);
    if (cmd == "generate") return cmd_generate(args);
    if (cmd == "simulate") return cmd_simulate(args);
    if (cmd == "sweep") return cmd_sweep(args);
    if (cmd == "gcached") return cmd_gcached(args);
    if (cmd == "profile") return cmd_profile(args);
    if (cmd == "mrc") return cmd_mrc(args);
    if (cmd == "import") return cmd_import(args);
    if (cmd == "layout") return cmd_layout(args);
    if (cmd == "hierarchy") return cmd_hierarchy(args);
    if (cmd == "adversary") return cmd_adversary(args);
    if (cmd == "opt") return cmd_opt(args);
    if (cmd == "bounds") return cmd_bounds(args);
    std::cerr << "unknown subcommand: " << cmd << " (try `gcsim help`)\n";
    return 2;
  } catch (const gcaching::ContractViolation& e) {
    std::cerr << "error: " << e.message() << "\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
