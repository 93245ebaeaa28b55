// Named-counter registry with CSV / JSON-lines sinks.
//
// Coarse occurrence counters for the cold orchestration layers — sweep rows
// and cells completed, stack-column passes, thread-pool tasks executed. Everything here is mutex-guarded and intended
// for code that runs once per row/task, never per access: per-access
// telemetry belongs in StatsTimeline (src/obs/timeline.hpp), and gclint's
// `hot-region-raw-obs` rule keeps raw registry calls out of GC_HOT_REGION
// markers.
//
// Collection sites use GC_OBS_COUNT (src/obs/obs.hpp), which compiles to
// nothing under GCACHING_OBS=OFF and costs one relaxed atomic load when no
// registry is installed.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace gcaching::obs {

class CounterRegistry {
 public:
  CounterRegistry() = default;
  CounterRegistry(const CounterRegistry&) = delete;
  CounterRegistry& operator=(const CounterRegistry&) = delete;

  /// Add `delta` to the named counter, creating it at zero first.
  void add(const std::string& name, std::uint64_t delta = 1);

  /// Current value; 0 for a counter never touched.
  std::uint64_t value(const std::string& name) const;

  /// Sorted (name, value) snapshot.
  std::vector<std::pair<std::string, std::uint64_t>> snapshot() const;

  // Sinks: one row/object per counter, sorted by name.
  void write_csv(const std::string& path) const;
  void write_jsonl(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::uint64_t> counters_;
};

namespace detail {
inline std::atomic<CounterRegistry*> g_metrics{nullptr};
}  // namespace detail

/// The installed process-wide registry, or nullptr (idle: counting sites
/// cost one atomic load).
inline CounterRegistry* metrics() noexcept {
  return detail::g_metrics.load(std::memory_order_acquire);
}

inline void install_metrics(CounterRegistry* registry) noexcept {
  detail::g_metrics.store(registry, std::memory_order_release);
}

/// RAII installation; the previous installation is restored on exit.
class MetricsScope {
 public:
  explicit MetricsScope(CounterRegistry& registry) noexcept
      : prev_(metrics()) {
    install_metrics(&registry);
  }
  ~MetricsScope() { install_metrics(prev_); }
  MetricsScope(const MetricsScope&) = delete;
  MetricsScope& operator=(const MetricsScope&) = delete;

 private:
  CounterRegistry* prev_;
};

}  // namespace gcaching::obs
