// Structured span tracing and unified metrics export (lacon::trace).
//
// The Stats registry (runtime/stats.hpp) answers *what happened* — how many
// layers expanded, how many candidate pairs the similarity index confirmed —
// but not *when or on which thread*. This layer adds that dimension:
//
//  * Spans. A LACON_TRACE_SPAN(category, name) statement times the enclosing
//    scope. In `counters` mode the duration feeds a log2-bucketed Histogram
//    named "span.<category>.<name>"; in `spans` mode a begin/end event with
//    thread attribution and nesting depth is additionally appended to the
//    emitting thread's own buffer. Every phase of a request runs on the
//    thread that serves it, so a request's spans nest on one track.
//
//  * Exporters. chrome_trace_json() renders the collected spans as Chrome
//    trace-event JSON (load it in Perfetto or chrome://tracing);
//    MetricsSnapshot::capture() merges the trace mode, the guard spec and
//    its trip counters, every Stats counter/timer, every
//    histogram and the span-buffer totals into one JSON document
//    ("lacon.metrics.v1") that the bench harnesses emit next to each
//    BENCH_*.json.
//
// Modes and the off-path contract:
//
//  * LACON_TRACE=off (default): ScopedSpan's constructor performs one
//    relaxed atomic load and a predictable branch — no clock read, no
//    allocation, no stats lookup. The t9/t10 bench regression gate runs in
//    this configuration, so span placement in hot paths is free when off.
//  * LACON_TRACE=counters: durations are histogrammed; no events buffered.
//  * LACON_TRACE=spans: durations are histogrammed AND events are recorded
//    into per-thread lock-free buffers (chunked arrays; the emit path is one
//    slot write plus a release store of the published size — a mutex is
//    only taken on the cold chunk-roll and by readers).
//
// Thread model: emission is safe from any thread at any time. collect() and
// the exporters may run concurrently with emission (they read each buffer's
// published prefix), but clear()/set_mode() must only run while no other
// thread is emitting. Buffers of exited threads are retired, not lost:
// their events stay exportable for the life of the process.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "runtime/stats.hpp"

namespace lacon::trace {

enum class Mode : std::uint8_t { kOff = 0, kCounters, kSpans };

const char* to_string(Mode mode) noexcept;

// Parses a LACON_TRACE-style value: "off" | "counters" | "spans". Malformed
// values earn a one-line stderr warning (once per process) and fall back.
Mode parse_mode(const char* text, Mode fallback) noexcept;

namespace detail {
// 0 = not yet initialized from the environment; otherwise Mode + 1.
extern std::atomic<std::uint8_t> g_mode_plus_one;
Mode mode_slow() noexcept;  // parses LACON_TRACE, publishes, returns
}  // namespace detail

// The active mode; first call reads LACON_TRACE. One relaxed load after
// initialization — this is the whole cost of a span site when tracing is
// off.
inline Mode mode() noexcept {
  const std::uint8_t m =
      detail::g_mode_plus_one.load(std::memory_order_relaxed);
  if (m == 0) return detail::mode_slow();
  return static_cast<Mode>(m - 1);
}

// Overrides the mode (tests, harnesses). Call only while no other thread is
// emitting; spans already buffered are kept until clear().
void set_mode(Mode mode) noexcept;

// Sentinel for "no numeric payload attached to this span".
inline constexpr std::uint64_t kNoArg = ~std::uint64_t{0};

// A span call site: one constant-initialized static per LACON_TRACE_SPAN
// statement, so emission never allocates or re-parses names. The duration
// histogram "span.<category>.<name>" is resolved lazily on first record.
struct SpanSite {
  const char* category;
  const char* name;
  std::atomic<runtime::Histogram*> hist{nullptr};

  constexpr SpanSite(const char* category_in, const char* name_in) noexcept
      : category(category_in), name(name_in) {}
  SpanSite(const SpanSite&) = delete;
  SpanSite& operator=(const SpanSite&) = delete;

  runtime::Histogram& histogram();
};

// RAII span: times construction-to-destruction against a site. All real
// work happens out of line and only when tracing is on.
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanSite& site, std::uint64_t arg = kNoArg) noexcept {
    if (mode() != Mode::kOff) begin(&site, arg);
  }
  ~ScopedSpan() {
    if (site_ != nullptr) finish();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  void begin(SpanSite* site, std::uint64_t arg) noexcept;
  void finish() noexcept;

  SpanSite* site_ = nullptr;
  void* thread_state_ = nullptr;  // set iff the span buffers an event
  std::uint64_t start_ns_ = 0;
  std::uint64_t arg_ = kNoArg;
  std::uint32_t depth_ = 0;
};

// One collected span event, ready for export. Times are nanoseconds since
// the process trace epoch (first clock use).
struct CollectedSpan {
  const char* category = nullptr;
  const char* name = nullptr;
  std::uint32_t tid = 0;    // dense per-process trace thread id
  std::uint32_t depth = 0;  // nesting level on the emitting thread
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint64_t arg = kNoArg;
};

// Snapshot of every buffered span (live and retired threads), sorted by
// (start_ns, tid). Non-destructive; safe concurrently with emission.
std::vector<CollectedSpan> collect();

// Drops all buffered spans (live and retired) and the dropped-span count.
// Only call while no other thread is emitting.
void clear();

// Totals across all buffers: events currently held / events dropped by the
// per-thread cap.
std::size_t spans_recorded();
std::size_t spans_dropped() noexcept;

// Chrome trace-event JSON ("traceEvents" array of "X" events plus
// thread-name metadata). Loadable in Perfetto / chrome://tracing.
std::string chrome_trace_json();
bool write_chrome_trace(const std::string& path);

// The unified machine-readable export: one JSON document merging the
// runtime configuration, guard state, every Stats counter/timer/histogram
// and the span totals. Schema "lacon.metrics.v1"; see DESIGN.md §11 for the
// field-by-field contract. Deterministic for deterministic inputs: keys are
// sorted, so two runs that record the same stats serialize identically.
struct MetricsSnapshot {
  Mode trace_mode = Mode::kOff;
  std::int64_t guard_budget_ms = 0;
  std::uint64_t guard_max_states = 0;
  std::vector<runtime::StatSample> stats;            // sorted by name
  std::vector<runtime::HistogramSample> histograms;  // sorted by name
  std::uint64_t spans_recorded = 0;
  std::uint64_t spans_dropped = 0;

  static MetricsSnapshot capture();
  std::string to_json() const;
};

std::string metrics_snapshot_json();
bool write_metrics_snapshot(const std::string& path);

// Honors the artifact knobs: writes the MetricsSnapshot to
// $LACON_METRICS_FILE (if set) and, in spans mode, the Chrome trace to
// $LACON_TRACE_FILE (if set). The bench harnesses call this at exit;
// bench/run_all.sh points both knobs next to each BENCH_*.json.
void write_env_artifacts();

}  // namespace lacon::trace

// Span macros. Each expands to a constant-initialized static site (no
// thread-safe-static guard) plus an RAII span over the enclosing scope.
#define LACON_TRACE_CAT_(a, b) a##b
#define LACON_TRACE_CAT(a, b) LACON_TRACE_CAT_(a, b)

#define LACON_TRACE_SPAN(category, name)                                   \
  static constinit ::lacon::trace::SpanSite LACON_TRACE_CAT(               \
      lacon_trace_site_, __LINE__){category, name};                        \
  const ::lacon::trace::ScopedSpan LACON_TRACE_CAT(                        \
      lacon_trace_span_, __LINE__){LACON_TRACE_CAT(lacon_trace_site_,      \
                                                   __LINE__)}
#define LACON_TRACE_SPAN_ARG(category, name, arg_value)                    \
  static constinit ::lacon::trace::SpanSite LACON_TRACE_CAT(               \
      lacon_trace_site_, __LINE__){category, name};                        \
  const ::lacon::trace::ScopedSpan LACON_TRACE_CAT(                        \
      lacon_trace_span_, __LINE__){                                        \
      LACON_TRACE_CAT(lacon_trace_site_, __LINE__),                        \
      static_cast<std::uint64_t>(arg_value)}
