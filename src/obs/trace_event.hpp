// Chrome trace-event collection and export.
//
// A `TraceLog` records span events — sweep rows, thread-pool tasks, block-id
// precompute passes, stack-column passes — and exports them in the Chrome
// trace-event JSON format, so a sweep's scheduling and thread utilization
// can be inspected visually in `chrome://tracing` or https://ui.perfetto.dev
// (load the exported `trace.json`, no conversion needed).
//
// Collection sites use the GC_OBS_SPAN macro (src/obs/obs.hpp), which
// compiles to nothing under GCACHING_OBS=OFF; with obs compiled in but no
// log installed, a span costs one relaxed atomic load. Installation is
// process-global (`TraceLogScope`): spans are recorded from worker threads,
// so a thread-local slot would miss exactly the events we care about.
//
// Export uses complete ("X") events only — begin/end pairs never dangle —
// plus "M" metadata rows naming threads. `validate_chrome_trace` is the
// matching schema check (valid JSON, required keys, per-thread monotonic
// and properly nested timestamps); tests and CI run it over every exported
// trace.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

namespace gcaching::obs {

struct TraceEvent {
  std::string name;
  std::string cat;
  char ph = 'X';            ///< 'X' complete span, 'M' metadata
  std::int64_t ts_ns = 0;   ///< start, nanoseconds since the log's epoch
  std::int64_t dur_ns = 0;  ///< span length ('X' only)
  std::uint32_t tid = 0;    ///< dense per-log thread index
  std::vector<std::pair<std::string, std::string>> args;
};

class TraceLog {
 public:
  TraceLog() : epoch_(std::chrono::steady_clock::now()) {}
  TraceLog(const TraceLog&) = delete;
  TraceLog& operator=(const TraceLog&) = delete;

  /// Monotonic nanoseconds since the log was created.
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  /// Record one complete span (thread id is taken from the caller).
  void complete(std::string name, std::string cat, std::int64_t start_ns,
                std::int64_t end_ns,
                std::vector<std::pair<std::string, std::string>> args = {});

  /// Name the calling thread in the trace viewer ("M" metadata event).
  /// Idempotent: re-announcing an unchanged name records nothing, so worker
  /// loops may call this once per task instead of coordinating with log
  /// installation order.
  void set_thread_name(const std::string& name);

  std::size_t size() const;
  std::vector<TraceEvent> events() const;  ///< snapshot copy

  /// Chrome trace-event JSON: {"traceEvents": [...]}. Events are emitted
  /// sorted by start time (ties: longer span first), which makes per-thread
  /// timestamps monotonic in the file — the property the validator checks.
  void write_chrome_trace(std::ostream& os) const;
  /// Throws std::runtime_error("cannot write <path>") when the file cannot
  /// be opened or fully written.
  void write_chrome_trace_file(const std::string& path) const;

 private:
  std::uint32_t tid_locked(std::thread::id id);

  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
  std::unordered_map<std::thread::id, std::uint32_t> tids_;
  std::unordered_map<std::uint32_t, std::string> thread_names_;
};

/// Schema check for an exported trace: returns "" when `json` is a valid
/// Chrome trace (parses as JSON; every event carries name/ph/ts/pid/tid;
/// ph is X, M, B, or E; X durations are non-negative; per-thread timestamps
/// are monotonic with properly nested X spans and matched B/E pairs), or a
/// human-readable description of the first problem found.
std::string validate_chrome_trace(const std::string& json);

namespace detail {
inline std::atomic<TraceLog*> g_trace_log{nullptr};
}  // namespace detail

/// The installed process-wide trace log, or nullptr (idle: spans cost one
/// atomic load).
inline TraceLog* trace_log() noexcept {
  return detail::g_trace_log.load(std::memory_order_acquire);
}

inline void install_trace_log(TraceLog* log) noexcept {
  detail::g_trace_log.store(log, std::memory_order_release);
}

/// RAII installation. Not reentrant across threads by design — one log per
/// process at a time; the previous installation is restored on exit.
class TraceLogScope {
 public:
  explicit TraceLogScope(TraceLog& log) noexcept : prev_(trace_log()) {
    install_trace_log(&log);
  }
  ~TraceLogScope() { install_trace_log(prev_); }
  TraceLogScope(const TraceLogScope&) = delete;
  TraceLogScope& operator=(const TraceLogScope&) = delete;

 private:
  TraceLog* prev_;
};

/// RAII span: captures the start time at construction when a log is
/// installed, records one complete event at destruction. Cheap when idle.
/// Use through GC_OBS_SPAN / GC_OBS_SPAN_ARG so the whole thing compiles
/// out under GCACHING_OBS=OFF.
class SpanGuard {
 public:
  SpanGuard(const char* name, const char* cat) : log_(trace_log()) {
    if (log_ != nullptr) {
      name_ = name;
      cat_ = cat;
      start_ns_ = log_->now_ns();
    }
  }
  ~SpanGuard() {
    if (log_ != nullptr)
      log_->complete(name_, cat_, start_ns_, log_->now_ns(),
                     std::move(args_));
  }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

  /// Attach a key/value argument shown in the trace viewer. No-op when idle.
  void arg(const char* key, std::string value) {
    if (log_ != nullptr) args_.emplace_back(key, std::move(value));
  }

  bool active() const noexcept { return log_ != nullptr; }

 private:
  TraceLog* log_;
  const char* name_ = "";
  const char* cat_ = "";
  std::int64_t start_ns_ = 0;
  std::vector<std::pair<std::string, std::string>> args_;
};

/// Name the calling thread in the installed log, if any.
inline void name_current_thread(const std::string& name) {
  if (TraceLog* log = trace_log(); log != nullptr) log->set_thread_name(name);
}

}  // namespace gcaching::obs
