#include "obs/gcmon.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/trace_event.hpp"
#include "util/contracts.hpp"
#include "util/parse.hpp"

namespace gcaching::obs {

Monitor::Monitor(MonitorConfig cfg)
    : cfg_(std::move(cfg)), started_(std::chrono::steady_clock::now()) {
  GC_REQUIRE(cfg_.interval.count() > 0, "monitor interval must be positive");
}

Monitor::~Monitor() { stop(); }

void Monitor::attach_shards(ShardSource source) {
  std::lock_guard<std::mutex> lock(mu_);
  source_ = std::move(source);
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
  // Runs under mu_ (harvest_now). The source takes each shard's lock for
  // one read of its counters; the histograms are relaxed-atomic reads that never
  // block a recording thread (docs/CONCURRENCY.md).
  Snapshot s;
  s.seq = seq_++;
  s.wall_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                  std::chrono::system_clock::now().time_since_epoch())
                  .count();
  s.uptime_s = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - started_)
                   .count();
  if (source_) s.shards = source_();
  for (const ShardCounters& shard : s.shards) s.totals += shard;
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
  return s;
}

Snapshot Monitor::harvest_now() {
  // Bridge each harvest into the installed TraceLog (if any) so snapshot
  // cadence and export cost render beside sweep spans in chrome://tracing.
  SpanGuard span("gcmon_snapshot", "gcmon");
  std::lock_guard<std::mutex> lock(mu_);
  Snapshot s = build_snapshot();
  if (span.active()) span.arg("seq", std::to_string(s.seq));
  export_snapshot(s);
  return s;
}

void Monitor::export_snapshot(const Snapshot& snap) {
  const auto failed = [this](const std::string& path) {
    if (export_error_.empty()) export_error_ = "cannot write " + path;
  };
  if (!cfg_.prometheus_path.empty() &&
      !write_file_atomic(cfg_.prometheus_path, prometheus_text(snap)))
    failed(cfg_.prometheus_path);
  if (!cfg_.jsonl_path.empty()) {
    // The stream starts empty, so a rerun never reads as falling counters.
    if (snap.seq == 0) jsonl_.open(cfg_.jsonl_path, std::ios::trunc);
    jsonl_ << jsonl_line(snap) << '\n';
    jsonl_.flush();
    if (!jsonl_.good()) failed(cfg_.jsonl_path);
  }
}

std::string Monitor::export_error() const {
  std::lock_guard<std::mutex> lock(mu_);
  return export_error_;
}

namespace {

void scalar(std::ostringstream& os, const char* name, const char* type,
            const char* help, double value) {
  os << "# HELP " << name << ' ' << help << '\n';
  os << "# TYPE " << name << ' ' << type << '\n';
  os << name << ' ' << value << '\n';
}

void json_object(std::ostringstream& os, const ShardCounters& c) {
  os << '{';
  write_json_fields(os, counters(c));
  os << '}';
}

}  // namespace

std::string prometheus_text(const Snapshot& snap) {
  std::ostringstream os;
  os.setf(std::ios::fixed, std::ios::floatfield);
  os.precision(1);
  // One family per counter of the record, one sample per shard.
  std::vector<std::vector<Counter>> shards;
  for (const ShardCounters& shard : snap.shards)
    shards.push_back(counters(shard));
  const std::vector<Counter> fields = counters(ShardCounters{});
  for (std::size_t k = 0; k < fields.size(); ++k) {
    const std::string name = std::string("gcached_shard_") + fields[k].key +
                             (fields[k].gauge ? "" : "_total");
    os << "# HELP " << name << ' ' << fields[k].help << '\n';
    os << "# TYPE " << name << (fields[k].gauge ? " gauge\n" : " counter\n");
    for (std::size_t i = 0; i < shards.size(); ++i)
      os << name << "{shard=\"" << i << "\"} " << shards[i][k].value << '\n';
  }
  scalar(os, "gcached_latency_count", "gauge",
         "Sampled operations (about 1 in 16, closed loop) recorded by the "
         "merged latency histogram.",
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

std::string jsonl_line(const Snapshot& snap) {
  std::ostringstream os;
  os.setf(std::ios::fixed, std::ios::floatfield);
  os.precision(3);
  os << "{\"seq\": " << snap.seq << ", \"wall_ms\": " << snap.wall_ms
     << ", \"uptime_s\": " << snap.uptime_s;
  os << ", \"totals\": ";
  json_object(os, snap.totals);
  os << ", \"latency\": {\"count\": " << snap.latency.count
     << ", \"p50_ns\": " << snap.latency.p50_ns
     << ", \"p99_ns\": " << snap.latency.p99_ns
     << ", \"p999_ns\": " << snap.latency.p999_ns
     << ", \"max_ns\": " << snap.latency.max_ns << '}';
  os << ", \"shards\": [";
  for (std::size_t i = 0; i < snap.shards.size(); ++i) {
    if (i > 0) os << ", ";
    json_object(os, snap.shards[i]);
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
    if (!parse_number<double>(value))
      return at + ": value \"" + value + "\" is not a finite number";
    any_sample = true;
  }
  if (!any_sample) return "exposition contains no samples";
  return "";
}

}  // namespace gcaching::obs
