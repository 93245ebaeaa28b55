// Windowed time-series collection of SimStats.
//
// A `StatsTimeline` slices a simulation run into fixed-length windows of N
// accesses and records the SimStats *delta* of each window, so phase
// behavior (the windowed miss-rate structure behind the paper's working-set
// bounds, GCM's epoch resets, delayed-hit analyses) becomes visible instead
// of being averaged into one end-of-trace aggregate. A timeline records one
// run at one capacity: a single series of windows.
//
// The engines drive it exclusively through the GC_OBS_* macros
// (src/obs/obs.hpp): `GC_OBS_TICK` calls `tick_due()` once per access — a
// counter increment and compare — and only on a window boundary materializes
// a full live SimStats and calls `record()`. Attaching a timeline never
// perturbs the simulation: window deltas sum to exactly the SimStats the
// un-instrumented run returns (tests/test_obs_timeline.cpp holds both
// engines to that bit-identity).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/stats.hpp"
#include "util/contracts.hpp"

namespace gcaching::obs {

/// One recorded window.
struct TimelineWindow {
  std::uint64_t start = 0;   ///< index of the window's first access
  std::uint64_t length = 0;  ///< accesses covered (< window only when final)
  SimStats delta;            ///< stat deltas over exactly these accesses

  double miss_rate() const { return delta.miss_rate(); }
  double spatial_hit_share() const { return delta.spatial_hit_share(); }
  double wasted_sideload_share() const {
    return delta.wasted_sideload_share();
  }
};

class StatsTimeline {
 public:
  /// With `kAutoWindow` the window length is derived from the trace length
  /// at `open()` time (about kAutoTargetWindows windows per run, min 1).
  static constexpr std::uint64_t kAutoWindow = 0;
  static constexpr std::uint64_t kAutoTargetWindows = 256;

  explicit StatsTimeline(std::uint64_t window = kAutoWindow)
      : requested_window_(window) {}

  /// Cold, once per run (GC_OBS_TIMELINE_OPEN): resolves an auto window
  /// against the trace length and resets any previous recording — a
  /// timeline holds the windows of the run that opened it last.
  void open(std::size_t capacity, std::uint64_t total_accesses);

  GC_HOT_REGION_BEGIN(timeline_tick)
  /// Hot, once per access: counts the access into the open window and
  /// reports whether it completed the window. Only then does the caller pay
  /// for a stats snapshot (see GC_OBS_TICK).
  bool tick_due() noexcept { return ++in_window_ >= window_; }
  GC_HOT_REGION_END(timeline_tick)

  /// Once per window boundary: closes the open window against the live
  /// running totals (`live` minus the totals at the previous boundary).
  void record(const SimStats& live);

  /// Cold, once per run (GC_OBS_TIMELINE_CLOSE): flushes a final partial
  /// window, if any, and pins the run's final totals.
  void close(const SimStats& final_totals);

  std::uint64_t window() const noexcept { return window_; }
  std::size_t capacity() const noexcept { return capacity_; }
  const std::vector<TimelineWindow>& windows() const noexcept { return rows_; }
  const SimStats& final_totals() const noexcept { return final_totals_; }
  bool closed() const noexcept { return closed_; }

  /// Sum of every recorded window delta — bit-identical to the run's final
  /// SimStats once the timeline is closed (the invariant
  /// tests/test_obs_timeline.cpp pins for both engines).
  SimStats window_sum() const;

  /// JSON-lines sink, one object per window: capacity, window, start,
  /// length, raw deltas, derived rates. Throws std::runtime_error("cannot
  /// write <path>") when the file cannot be opened or fully written.
  void write_jsonl(const std::string& path) const;

 private:
  std::uint64_t requested_window_;
  std::uint64_t window_ = 1;
  std::size_t capacity_ = 0;
  std::uint64_t in_window_ = 0;  ///< accesses since the last boundary
  std::uint64_t seen_ = 0;       ///< accesses already folded into rows
  SimStats last_;                ///< running totals at the last boundary
  SimStats final_totals_;
  bool closed_ = false;
  std::vector<TimelineWindow> rows_;
};

namespace detail {
inline thread_local StatsTimeline* tl_timeline = nullptr;
}  // namespace detail

/// The timeline the current thread's next simulation run records into, or
/// nullptr (the idle fast path: engines read this once per run and test a
/// register against null per access).
inline StatsTimeline* current_timeline() noexcept {
  return detail::tl_timeline;
}

/// RAII attachment: simulations started on this thread inside the scope
/// record into `timeline`. Scopes nest; the previous attachment is restored.
class TimelineScope {
 public:
  explicit TimelineScope(StatsTimeline& timeline) noexcept
      : prev_(detail::tl_timeline) {
    detail::tl_timeline = &timeline;
  }
  ~TimelineScope() { detail::tl_timeline = prev_; }
  TimelineScope(const TimelineScope&) = delete;
  TimelineScope& operator=(const TimelineScope&) = delete;

 private:
  StatsTimeline* prev_;
};

/// RAII detachment: simulations inside the scope record nothing, whatever
/// the enclosing attachment. Used by internal cross-check runs (the
/// stack-column derivation check) so a verification replay never leaks into
/// the timeline the user attached for the real run.
class TimelineDetachScope {
 public:
  TimelineDetachScope() noexcept : prev_(detail::tl_timeline) {
    detail::tl_timeline = nullptr;
  }
  ~TimelineDetachScope() { detail::tl_timeline = prev_; }
  TimelineDetachScope(const TimelineDetachScope&) = delete;
  TimelineDetachScope& operator=(const TimelineDetachScope&) = delete;

 private:
  StatsTimeline* prev_;
};

}  // namespace gcaching::obs
