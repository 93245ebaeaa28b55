// gcobs — compile-time-tiered observability, umbrella header.
//
// The same tiering philosophy as util/contracts.hpp, applied to telemetry:
//
//   GCACHING_OBS=ON  (default preset)  — GC_OBS_* macros are live. Installing
//     a TraceLog (TraceLogScope) turns recording on; with no log installed
//     each span site costs one relaxed atomic load.
//   GCACHING_OBS=OFF (fast preset)     — every GC_OBS_* macro expands to
//     nothing. tests/test_obs_timeline.cpp proves this the same way
//     test_contracts proves GC_HOT_* elision: a constexpr function
//     containing the macros must be a constant expression.
//
// Spans mark per-task and per-run work (sweep rows and cells, pool tasks),
// never per-access code: hot regions carry no telemetry, which gclint's
// `hot-path` rule enforces for obs:: and these macros alike. Windowed
// timelines (obs/timeline.hpp) need no macro: `record_timeline` steps the
// verifying engine itself and harvests a gcmon Monitor once per window.
//
// Macro inventory:
//   GC_OBS_SPAN(var, name, cat)          RAII trace span for this scope
//   GC_OBS_SPAN_ARG(var, key, val)       attach an argument to a span
//   GC_OBS_THREAD_NAME(name)             label the thread in the trace view
#pragma once

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

#define GC_OBS_SPAN(var, span_name, span_cat) \
  ::gcaching::obs::SpanGuard var((span_name), (span_cat))

#define GC_OBS_SPAN_ARG(var, key, value) (var).arg((key), (value))

#define GC_OBS_THREAD_NAME(name) ::gcaching::obs::name_current_thread(name)

#else  // GCACHING_OBS off: every site vanishes.

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
