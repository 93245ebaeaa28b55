// gcobs — compile-time-tiered observability, umbrella header.
//
// The same tiering philosophy as util/contracts.hpp, applied to telemetry:
//
//   GCACHING_OBS=ON  (default preset)  — GC_OBS_* macros are live. Attaching
//     a sink (TimelineScope / TraceLogScope) turns recording on; with no
//     sink attached the engines select their tick-free loop copy once per
//     run via GC_OBS_ATTACHED (idle timeline cost: one branch per RUN, not
//     per access) and each span site costs one relaxed atomic load.
//   GCACHING_OBS=OFF (fast preset)     — every GC_OBS_* macro expands to
//     nothing; the hot loops compile to exactly the un-instrumented code.
//     tests/test_obs_timeline.cpp proves this the same way test_contracts
//     proves GC_HOT_* elision: a constexpr function containing the macros
//     must be a constant expression.
//
// Instrumentation sites use ONLY these macros — never obs:: calls directly —
// inside GC_HOT_REGION markers; gclint's `hot-region-raw-obs` rule enforces
// this, so telemetry can never silently tax the fast path.
//
// Macro inventory:
//   GC_OBS_TIMELINE(var)                 hoist the thread's timeline pointer
//   GC_OBS_ATTACHED(var)                 `var != nullptr`, constant false
//                                        when compiled out — lets an engine
//                                        keep a tick-free copy of its hot
//                                        loop for the idle/off cases
//   GC_OBS_TIMELINE_OPEN(var, cap, n)    reset / resolve auto window
//   GC_OBS_TICK(var, ...)                per-access; `...` (a live SimStats
//                                        expression) is evaluated only on a
//                                        window boundary
//   GC_OBS_TIMELINE_CLOSE(var, f)        flush partial window, pin totals
//   GC_OBS_SPAN(var, name, cat)          RAII trace span for this scope
//   GC_OBS_SPAN_ARG(var, key, val)       attach an argument to a span
//   GC_OBS_THREAD_NAME(name)             label the thread in the trace view
#pragma once

#include "obs/timeline.hpp"
#include "obs/trace_event.hpp"

namespace gcaching::obs {

/// True when the GC_OBS_* macros are live in this build. Mirrors
/// contracts.hpp's kHotChecksEnabled so tests and tools can branch on the
/// build flavor instead of sprinkling #ifdefs.
#if defined(GCACHING_OBS)
inline constexpr bool kObsEnabled = true;
#else
inline constexpr bool kObsEnabled = false;
#endif

}  // namespace gcaching::obs

#if defined(GCACHING_OBS)

#define GC_OBS_TIMELINE(var) \
  ::gcaching::obs::StatsTimeline* const var = ::gcaching::obs::current_timeline()

#define GC_OBS_ATTACHED(var) ((var) != nullptr)

#define GC_OBS_TIMELINE_OPEN(var, capacity, total)          \
  do {                                                      \
    if ((var) != nullptr) (var)->open((capacity), (total)); \
  } while (0)

// The variadic tail is the live-stats expression; it is only evaluated when
// tick_due() reports a window boundary, so the per-access cost stays at one
// null test plus one counter increment.
#define GC_OBS_TICK(var, ...)                  \
  do {                                         \
    if ((var) != nullptr && (var)->tick_due()) \
      (var)->record((__VA_ARGS__));            \
  } while (0)

#define GC_OBS_TIMELINE_CLOSE(var, final_totals)        \
  do {                                                  \
    if ((var) != nullptr) (var)->close((final_totals)); \
  } while (0)

#define GC_OBS_SPAN(var, span_name, span_cat) \
  ::gcaching::obs::SpanGuard var((span_name), (span_cat))

#define GC_OBS_SPAN_ARG(var, key, value) (var).arg((key), (value))

#define GC_OBS_THREAD_NAME(name) ::gcaching::obs::name_current_thread(name)

#else  // GCACHING_OBS off: every site vanishes.

// GC_OBS_TIMELINE still declares `var` (as a constant null) so that
// GC_OBS_ATTACHED(var) remains a compile-time-false expression whose branch
// the compiler deletes — the instrumented copy of an engine loop vanishes
// along with the macros themselves.
#define GC_OBS_TIMELINE(var) \
  [[maybe_unused]] constexpr decltype(nullptr) var = nullptr
#define GC_OBS_ATTACHED(var) false
#define GC_OBS_TIMELINE_OPEN(var, capacity, total) \
  do {                                             \
  } while (0)
#define GC_OBS_TICK(var, ...) \
  do {                        \
  } while (0)
#define GC_OBS_TIMELINE_CLOSE(var, final_totals) \
  do {                                           \
  } while (0)
#define GC_OBS_SPAN(var, span_name, span_cat) \
  do {                                        \
  } while (0)
#define GC_OBS_SPAN_ARG(var, key, value) \
  do {                                   \
  } while (0)
#define GC_OBS_THREAD_NAME(name) \
  do {                           \
  } while (0)

#endif  // GCACHING_OBS
