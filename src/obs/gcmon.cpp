#include "obs/gcmon.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/trace_event.hpp"
#include "util/contracts.hpp"

namespace gcaching::obs {

Monitor::Monitor(MonitorConfig cfg)
    : cfg_(std::move(cfg)), started_(std::chrono::steady_clock::now()) {
  GC_REQUIRE(cfg_.interval.count() > 0, "monitor interval must be positive");
  GC_REQUIRE(cfg_.ring_capacity > 0, "monitor ring needs capacity >= 1");
}

Monitor::~Monitor() { stop(); }

void Monitor::attach_atlas(const ShardAtlas* atlas) {
  std::lock_guard<std::mutex> lock(mu_);
  atlas_ = atlas;
  prev_.assign(atlas != nullptr ? atlas->size() : 0, ShardValues{});
}

void Monitor::add_histogram(const HdrHistogram* h) {
  std::lock_guard<std::mutex> lock(mu_);
  histograms_.push_back(h);
}

void Monitor::remove_histogram(const HdrHistogram* h) {
  std::lock_guard<std::mutex> lock(mu_);
  histograms_.erase(std::remove(histograms_.begin(), histograms_.end(), h),
                    histograms_.end());
}

void Monitor::start() {
  std::lock_guard<std::mutex> lock(run_mu_);
  if (running_) return;
  stop_requested_ = false;
  running_ = true;
  started_ = std::chrono::steady_clock::now();
  thread_ = std::thread([this] { run_loop(); });
}

void Monitor::stop() {
  {
    std::lock_guard<std::mutex> lock(run_mu_);
    if (!running_) return;
    stop_requested_ = true;
  }
  run_cv_.notify_all();
  thread_.join();
  {
    std::lock_guard<std::mutex> lock(run_mu_);
    running_ = false;
  }
  // Final harvest after the thread has quiesced, so runs shorter than one
  // interval still export at least one snapshot (and end-of-run totals are
  // always captured).
  harvest_now();
}

bool Monitor::running() const {
  std::lock_guard<std::mutex> lock(run_mu_);
  return running_;
}

void Monitor::run_loop() {
  std::unique_lock<std::mutex> lk(run_mu_);
  while (!stop_requested_) {
    lk.unlock();
    harvest_now();
    lk.lock();
    run_cv_.wait_for(lk, cfg_.interval, [this] { return stop_requested_; });
  }
}

Snapshot Monitor::build_snapshot() {
  // Everything under mu_ is a relaxed-atomic read or local arithmetic — no
  // shard lock, no recording-thread block (docs/CONCURRENCY.md).
  std::lock_guard<std::mutex> lock(mu_);
  Snapshot s;
  s.seq = seq_++;
  s.wall_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                  std::chrono::system_clock::now().time_since_epoch())
                  .count();
  s.uptime_s = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - started_)
                   .count();
  if (atlas_ != nullptr) {
    const std::size_t n = atlas_->size();
    s.shards.resize(n);
    s.shard_deltas.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      s.shards[i] = atlas_->read(i);
      s.shard_deltas[i] = s.shards[i] - prev_[i];
      s.totals += s.shards[i];
      prev_[i] = s.shards[i];
    }
    // totals.residency summed occupancy across shards is meaningful; the
    // other gauges difference to zero-delta by construction.
  }
  if (!histograms_.empty()) {
    // Merge into a scratch histogram (~34 KB) so percentile queries see one
    // consistent local table; sources may still be recording (tearing is
    // per-bucket exact, see hdr_histogram.hpp).
    static thread_local HdrHistogram merged;
    merged.clear();
    for (const HdrHistogram* h : histograms_) merged.merge_from(*h);
    s.latency.count = merged.count();
    s.latency.p50_ns = merged.quantile(0.50);
    s.latency.p99_ns = merged.quantile(0.99);
    s.latency.p999_ns = merged.quantile(0.999);
    s.latency.max_ns = merged.max_value();
    last_latency_ = s.latency;
  } else {
    // Gauge semantics: with no histograms registered (e.g. the final
    // harvest after run_load deregistered its per-thread tables), the last
    // observed summary persists instead of snapping to zero.
    s.latency = last_latency_;
  }
  ring_.push_back(s);
  if (ring_.size() > cfg_.ring_capacity)
    ring_.erase(ring_.begin(),
                ring_.begin() +
                    static_cast<std::ptrdiff_t>(ring_.size() -
                                                cfg_.ring_capacity));
  return s;
}

Snapshot Monitor::harvest_now() {
  // Bridge each harvest into the installed TraceLog (if any) so snapshot
  // cadence and export cost render beside sweep spans in chrome://tracing.
  SpanGuard span("gcmon_snapshot", "gcmon");
  Snapshot s = build_snapshot();
  if (span.active()) span.arg("seq", std::to_string(s.seq));
  export_snapshot(s);
  return s;
}

void Monitor::export_snapshot(const Snapshot& snap) {
  if (!cfg_.prometheus_path.empty())
    write_file_atomic(cfg_.prometheus_path, prometheus_text(snap));
  if (!cfg_.jsonl_path.empty()) {
    std::ofstream out(cfg_.jsonl_path, std::ios::app);
    if (out.good()) out << jsonl_line(snap) << '\n';
  }
}

std::size_t Monitor::snapshot_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.size();
}

std::vector<Snapshot> Monitor::snapshots() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_;
}

namespace {

/// One Prometheus metric family: HELP/TYPE header plus one sample per shard.
void family(std::ostringstream& os, const Snapshot& snap, const char* name,
            const char* type, const char* help,
            std::uint64_t ShardValues::* field) {
  os << "# HELP " << name << ' ' << help << '\n';
  os << "# TYPE " << name << ' ' << type << '\n';
  for (std::size_t i = 0; i < snap.shards.size(); ++i)
    os << name << "{shard=\"" << i << "\"} " << snap.shards[i].*field << '\n';
}

void scalar(std::ostringstream& os, const char* name, const char* type,
            const char* help, double value) {
  os << "# HELP " << name << ' ' << help << '\n';
  os << "# TYPE " << name << ' ' << type << '\n';
  os << name << ' ' << value << '\n';
}

}  // namespace

std::string Monitor::prometheus_text(const Snapshot& snap) const {
  std::ostringstream os;
  os.setf(std::ios::fixed, std::ios::floatfield);
  os.precision(1);
  family(os, snap, "gcached_shard_hits_total", "counter",
         "Cache hits served by this shard.", &ShardValues::hits);
  family(os, snap, "gcached_shard_misses_total", "counter",
         "Cache misses (fills) taken by this shard.", &ShardValues::misses);
  family(os, snap, "gcached_shard_sideloads_total", "counter",
         "Items sideloaded into this shard by block fills.",
         &ShardValues::sideloads);
  family(os, snap, "gcached_shard_delayed_hits_total", "counter",
         "Accesses served by an in-flight fill (MSHR coalescing).",
         &ShardValues::delayed_hits);
  family(os, snap, "gcached_shard_coalesced_waiters_total", "counter",
         "Waiters parked on an in-flight MSHR entry.",
         &ShardValues::coalesced);
  family(os, snap, "gcached_shard_lock_acquisitions_total", "counter",
         "Exclusive shard-lock acquisitions.",
         &ShardValues::lock_acquisitions);
  family(os, snap, "gcached_shard_trylock_failures_total", "counter",
         "Failed try-lock attempts (contention events).",
         &ShardValues::trylock_failures);
  family(os, snap, "gcached_shard_residency_items", "gauge",
         "Items currently resident in this shard's cache.",
         &ShardValues::residency);
  family(os, snap, "gcached_shard_mshr_inflight", "gauge",
         "Block fills currently in flight in this shard's MSHR table.",
         &ShardValues::mshr_inflight);
  scalar(os, "gcached_latency_count", "gauge",
         "Operations recorded by the merged latency histogram.",
         static_cast<double>(snap.latency.count));
  scalar(os, "gcached_latency_p50_nanoseconds", "gauge",
         "Median operation latency (HDR histogram, <=1% relative error).",
         snap.latency.p50_ns);
  scalar(os, "gcached_latency_p99_nanoseconds", "gauge",
         "99th percentile operation latency.", snap.latency.p99_ns);
  scalar(os, "gcached_latency_p999_nanoseconds", "gauge",
         "99.9th percentile operation latency.", snap.latency.p999_ns);
  scalar(os, "gcached_latency_max_nanoseconds", "gauge",
         "Maximum recorded operation latency.", snap.latency.max_ns);
  scalar(os, "gcmon_snapshot_seq", "counter",
         "Harvest sequence number of this exposition.",
         static_cast<double>(snap.seq));
  scalar(os, "gcmon_uptime_seconds", "gauge",
         "Seconds since the monitor was started.", snap.uptime_s);
  return os.str();
}

namespace {

void json_shard(std::ostringstream& os, const ShardValues& v) {
  os << "{\"hits\": " << v.hits << ", \"misses\": " << v.misses
     << ", \"sideloads\": " << v.sideloads
     << ", \"delayed_hits\": " << v.delayed_hits
     << ", \"coalesced\": " << v.coalesced
     << ", \"lock_acquisitions\": " << v.lock_acquisitions
     << ", \"trylock_failures\": " << v.trylock_failures
     << ", \"residency\": " << v.residency
     << ", \"mshr_inflight\": " << v.mshr_inflight << '}';
}

}  // namespace

std::string Monitor::jsonl_line(const Snapshot& snap) const {
  std::ostringstream os;
  os.setf(std::ios::fixed, std::ios::floatfield);
  os.precision(3);
  os << "{\"seq\": " << snap.seq << ", \"wall_ms\": " << snap.wall_ms
     << ", \"uptime_s\": " << snap.uptime_s;
  os << ", \"totals\": ";
  json_shard(os, snap.totals);
  os << ", \"latency\": {\"count\": " << snap.latency.count
     << ", \"p50_ns\": " << snap.latency.p50_ns
     << ", \"p99_ns\": " << snap.latency.p99_ns
     << ", \"p999_ns\": " << snap.latency.p999_ns
     << ", \"max_ns\": " << snap.latency.max_ns << '}';
  os << ", \"shards\": [";
  for (std::size_t i = 0; i < snap.shards.size(); ++i) {
    if (i > 0) os << ", ";
    json_shard(os, snap.shards[i]);
  }
  os << "], \"deltas\": [";
  for (std::size_t i = 0; i < snap.shard_deltas.size(); ++i) {
    if (i > 0) os << ", ";
    json_shard(os, snap.shard_deltas[i]);
  }
  os << "]}";
  return os.str();
}

bool write_file_atomic(const std::string& path, const std::string& text) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out.good()) return false;
    out << text;
    out.flush();
    if (!out.good()) {
      out.close();
      std::remove(tmp.c_str());
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

// ---- Prometheus exposition validation --------------------------------------
// Line-oriented check of the text format this module writes: comments, HELP/
// TYPE headers, and `name{labels} value` samples. Same spirit as
// validate_chrome_trace — small, strict about what we emit, used by tests
// and the CI gcmon job.

namespace {

bool valid_metric_name(const std::string& s) {
  if (s.empty()) return false;
  const auto head = [](char c) {
    return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_' ||
           c == ':';
  };
  const auto tail = [&](char c) {
    return head(c) || std::isdigit(static_cast<unsigned char>(c)) != 0;
  };
  if (!head(s[0])) return false;
  return std::all_of(s.begin() + 1, s.end(), tail);
}

bool parse_finite_number(const std::string& s) {
  if (s.empty()) return false;
  try {
    std::size_t used = 0;
    const double v = std::stod(s, &used);
    return used == s.size() && std::isfinite(v);
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace

std::string validate_prometheus_text(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  std::size_t lineno = 0;
  std::vector<std::string> typed;  // names with a # TYPE declaration
  bool any_sample = false;
  while (std::getline(in, line)) {
    ++lineno;
    const std::string at = "line " + std::to_string(lineno);
    if (line.empty()) continue;
    if (line[0] == '#') {
      std::istringstream ls(line);
      std::string hash, kind, name;
      ls >> hash >> kind >> name;
      if (kind != "HELP" && kind != "TYPE")
        return at + ": comment is neither HELP nor TYPE";
      if (!valid_metric_name(name))
        return at + ": bad metric name \"" + name + '"';
      if (kind == "TYPE") {
        std::string type;
        ls >> type;
        if (type != "counter" && type != "gauge" && type != "histogram" &&
            type != "summary" && type != "untyped")
          return at + ": unknown metric type \"" + type + '"';
        typed.push_back(name);
      }
      continue;
    }
    // Sample: name[{labels}] value
    std::size_t name_end = line.find_first_of("{ \t");
    if (name_end == std::string::npos)
      return at + ": sample has no value";
    const std::string name = line.substr(0, name_end);
    if (!valid_metric_name(name))
      return at + ": bad metric name \"" + name + '"';
    if (std::find(typed.begin(), typed.end(), name) == typed.end())
      return at + ": sample \"" + name + "\" has no preceding # TYPE";
    std::size_t rest = name_end;
    if (line[rest] == '{') {
      const std::size_t close = line.find('}', rest);
      if (close == std::string::npos)
        return at + ": unterminated label set";
      // Labels must be name="value" pairs; check quotes pair up.
      const std::string labels = line.substr(rest + 1, close - rest - 1);
      if (std::count(labels.begin(), labels.end(), '"') % 2 != 0)
        return at + ": unbalanced quotes in labels";
      if (!labels.empty() && labels.find('=') == std::string::npos)
        return at + ": labels without '='";
      rest = close + 1;
    }
    const std::size_t value_begin = line.find_first_not_of(" \t", rest);
    if (value_begin == std::string::npos)
      return at + ": sample has no value";
    const std::string value = line.substr(value_begin);
    if (!parse_finite_number(value))
      return at + ": value \"" + value + "\" is not a finite number";
    any_sample = true;
  }
  if (!any_sample) return "exposition contains no samples";
  return "";
}

}  // namespace gcaching::obs
