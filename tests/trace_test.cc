// Tests for lacon::trace (src/runtime/trace.{hpp,cc}) and the span
// Histogram (src/runtime/stats.hpp): bucket boundaries, the off-mode
// emits-nothing contract, span nesting and thread attribution as seen
// through the Chrome trace-event export, MetricsSnapshot determinism, and
// an injected-allocation-failure soak with tracing on (ci.sh re-runs this
// binary under TSan and ASan with LACON_TRACE=spans, which is what proves
// the span-buffer publish protocol race-free).
//
// Mode is process-global state, so every test that flips it restores
// Mode::kOff and clears the buffers on exit; tests in this binary are safe
// in any order but must not run concurrently with each other (gtest's
// default).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "analysis/reports.hpp"
#include "engine/explore.hpp"
#include "runtime/fault.hpp"
#include "runtime/stats.hpp"
#include "runtime/trace.hpp"

namespace lacon {
namespace {

using runtime::Histogram;

// RAII mode override: set, and on exit drop buffered spans and restore off.
class ModeGuard {
 public:
  explicit ModeGuard(trace::Mode m) { trace::set_mode(m); }
  ~ModeGuard() {
    trace::set_mode(trace::Mode::kOff);
    trace::clear();
  }
};

constinit trace::SpanSite g_outer_site{"test", "outer"};
constinit trace::SpanSite g_inner_site{"test", "inner"};

// --- Histogram bucket boundaries --------------------------------------

TEST(Histogram, BucketOfPowerOfTwoBoundaries) {
  // Bucket 0 holds exactly the value 0; bucket b >= 1 holds
  // [2^(b-1), 2^b).
  EXPECT_EQ(Histogram::bucket_of(0), 0u);
  EXPECT_EQ(Histogram::bucket_of(1), 1u);
  EXPECT_EQ(Histogram::bucket_of(2), 2u);
  EXPECT_EQ(Histogram::bucket_of(3), 2u);
  EXPECT_EQ(Histogram::bucket_of(4), 3u);
  EXPECT_EQ(Histogram::bucket_of(7), 3u);
  EXPECT_EQ(Histogram::bucket_of(8), 4u);
  EXPECT_EQ(Histogram::bucket_of(1023), 10u);
  EXPECT_EQ(Histogram::bucket_of(1024), 11u);
  EXPECT_EQ(Histogram::bucket_of(~std::uint64_t{0}), 64u);
}

TEST(Histogram, BucketLowerInvertsBucketOf) {
  for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
    const std::uint64_t lower = Histogram::bucket_lower(b);
    EXPECT_EQ(Histogram::bucket_of(lower), b) << "bucket " << b;
    if (lower > 0) {
      EXPECT_EQ(Histogram::bucket_of(lower - 1), b - 1) << "bucket " << b;
    }
  }
}

TEST(Histogram, RecordAccumulatesCountSumAndBuckets) {
  Histogram h;
  h.record(0);
  h.record(1);
  h.record(5);
  h.record(5);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 11u);
  EXPECT_EQ(h.bucket(0), 1u);  // value 0
  EXPECT_EQ(h.bucket(1), 1u);  // value 1
  EXPECT_EQ(h.bucket(3), 2u);  // values in [4, 8)
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
}

TEST(Histogram, ConcurrentRecordLosesNothing) {
  Histogram h;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (int i = 0; i < kPerThread; ++i) {
        h.record(static_cast<std::uint64_t>(i));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.count(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

// --- Mode knob ---------------------------------------------------------

TEST(TraceMode, ParseAcceptsKnownValuesAndFallsBack) {
  EXPECT_EQ(trace::parse_mode("off", trace::Mode::kSpans), trace::Mode::kOff);
  EXPECT_EQ(trace::parse_mode("counters", trace::Mode::kOff),
            trace::Mode::kCounters);
  EXPECT_EQ(trace::parse_mode("spans", trace::Mode::kOff),
            trace::Mode::kSpans);
  EXPECT_EQ(trace::parse_mode(nullptr, trace::Mode::kCounters),
            trace::Mode::kCounters);
  EXPECT_EQ(trace::parse_mode("", trace::Mode::kSpans), trace::Mode::kSpans);
  EXPECT_EQ(trace::parse_mode("bogus", trace::Mode::kOff), trace::Mode::kOff);
}

// --- Off mode: emits nothing -------------------------------------------

TEST(TraceOff, SpansEmitNothing) {
  trace::set_mode(trace::Mode::kOff);
  trace::clear();
  const std::uint64_t before = g_outer_site.histogram().count();
  {
    trace::ScopedSpan outer(g_outer_site, 7);
    trace::ScopedSpan inner(g_inner_site);
    LACON_TRACE_SPAN("test", "macro_site");
  }
  EXPECT_TRUE(trace::collect().empty());
  EXPECT_EQ(trace::spans_recorded(), 0u);
  EXPECT_EQ(g_outer_site.histogram().count(), before);
}

TEST(TraceCounters, HistogramsPopulateButNoEvents) {
  ModeGuard mode(trace::Mode::kCounters);
  const std::uint64_t before = g_outer_site.histogram().count();
  { trace::ScopedSpan span(g_outer_site); }
  EXPECT_EQ(g_outer_site.histogram().count(), before + 1);
  EXPECT_TRUE(trace::collect().empty());
}

// --- Spans mode: nesting, thread attribution ----------------------------

TEST(TraceSpans, RecordsNestingDepthAndArgs) {
  ModeGuard mode(trace::Mode::kSpans);
  trace::clear();
  {
    trace::ScopedSpan outer(g_outer_site, 42);
    trace::ScopedSpan inner(g_inner_site, 3);
  }
  const std::vector<trace::CollectedSpan> spans = trace::collect();
  ASSERT_EQ(spans.size(), 2u);
  // Sorted by start time: outer opened first.
  EXPECT_STREQ(spans[0].name, "outer");
  EXPECT_EQ(spans[0].depth, 0u);
  EXPECT_EQ(spans[0].arg, 42u);
  EXPECT_STREQ(spans[1].name, "inner");
  EXPECT_EQ(spans[1].depth, 1u);
  EXPECT_EQ(spans[1].arg, 3u);
  // Containment: inner starts after outer and ends no later.
  EXPECT_GE(spans[1].start_ns, spans[0].start_ns);
  EXPECT_LE(spans[1].start_ns + spans[1].dur_ns,
            spans[0].start_ns + spans[0].dur_ns);
  // All on the calling thread.
  EXPECT_EQ(spans[0].tid, spans[1].tid);
}

TEST(TraceSpans, DistinctThreadsGetDistinctTids) {
  ModeGuard mode(trace::Mode::kSpans);
  trace::clear();
  { trace::ScopedSpan span(g_outer_site); }
  std::thread t1([] { trace::ScopedSpan span(g_inner_site); });
  t1.join();
  std::thread t2([] { trace::ScopedSpan span(g_inner_site); });
  t2.join();
  const std::vector<trace::CollectedSpan> spans = trace::collect();
  ASSERT_EQ(spans.size(), 3u);  // retired threads keep their events
  std::set<std::uint32_t> tids;
  for (const auto& s : spans) tids.insert(s.tid);
  EXPECT_EQ(tids.size(), 3u);
}

// Explore runs one pass per level, so computing the layers and keeping
// their new states are both charged to explore.expand, one span per level.
TEST(TraceSpans, SerialExploreChargesLayerWorkToExpand) {
  ModeGuard mode(trace::Mode::kSpans);
  trace::clear();
  auto rule = min_after_round(2);
  auto model = make_model(ModelKind::kMobile, 4, 1, *rule);
  reachable_by_depth(*model, 3);
  std::uint64_t expand_ns = 0;
  std::size_t expand_spans = 0;
  std::size_t other_explore_spans = 0;
  for (const trace::CollectedSpan& s : trace::collect()) {
    if (std::string_view(s.category) != "explore") continue;
    if (std::string_view(s.name) == "expand") {
      expand_ns += s.dur_ns;
      ++expand_spans;
    } else {
      ++other_explore_spans;
    }
  }
  EXPECT_EQ(expand_spans, 3u);  // one per level
  EXPECT_EQ(other_explore_spans, 0u);
  EXPECT_GT(expand_ns, 0u);
}

TEST(TraceSpans, ChromeExportCarriesEventsAndThreadNames) {
  ModeGuard mode(trace::Mode::kSpans);
  trace::clear();
  {
    trace::ScopedSpan outer(g_outer_site, 9);
    trace::ScopedSpan inner(g_inner_site);
  }
  const std::string json = trace::chrome_trace_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"test.outer\""), std::string::npos);
  EXPECT_NE(json.find("\"test.inner\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"arg\":9"), std::string::npos);
}

// --- MetricsSnapshot ----------------------------------------------------

TEST(MetricsSnapshot, JsonIsDeterministicForFixedStats) {
  ModeGuard mode(trace::Mode::kCounters);
  { trace::ScopedSpan span(g_outer_site); }
  const std::string a = trace::metrics_snapshot_json();
  const std::string b = trace::metrics_snapshot_json();
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"schema\":\"lacon.metrics.v1\""), std::string::npos);
  EXPECT_NE(a.find("\"trace_mode\":\"counters\""), std::string::npos);
  EXPECT_NE(a.find("\"guard\":{\"budget_ms\":0,\"max_states\":0,"
                   "\"trips\":{\"deadline\":"),
            std::string::npos);
  EXPECT_NE(a.find("\"span.test.outer\""), std::string::npos);
}

// --- Fault soak with tracing on ----------------------------------------

// An injected allocation failure mid-exploration must not corrupt the span
// buffers: the failing intern unwinds through the live expand span (the
// unguarded call propagates it), and tracing stays usable afterwards. Under
// TSan/ASan (ci.sh soak) this doubles as the race/leak check for the unwind
// path.
TEST(TraceFaultSoak, TaskBodyFaultsWithTracingOn) {
  ModeGuard mode(trace::Mode::kSpans);
  std::uint64_t seed = 20260805;
  if (const auto env = fault::config_from_env()) seed = env->seed;
  trace::clear();
  auto rule = min_after_round(2);
  auto model = make_model(ModelKind::kMobile, 3, 1, *rule);
  model->initial_states();  // interned before the plan: Con_0 is cached
  {
    fault::FaultScope scope(
        seed, 1.0, 1u << static_cast<unsigned>(fault::Site::kArenaAlloc));
    trace::ScopedSpan outer(g_outer_site);
    EXPECT_THROW(reachable_by_depth(*model, 2), fault::InjectedAllocError);
  }
  bool unwound_expand = false;
  for (const trace::CollectedSpan& s : trace::collect()) {
    if (std::string_view(s.name) == "expand") unwound_expand = true;
  }
  EXPECT_TRUE(unwound_expand) << "the failure did not cross a live span";
  // Tracing still works after the unwind...
  { trace::ScopedSpan span(g_inner_site); }
  const std::vector<trace::CollectedSpan> spans = trace::collect();
  EXPECT_TRUE(std::any_of(spans.begin(), spans.end(), [](const auto& s) {
    return std::string_view(s.name) == "inner";
  }));
  // ...and the collected events are well-formed (every span closed, depths
  // back to zero at top level).
  for (const trace::CollectedSpan& s : spans) {
    EXPECT_NE(s.name, nullptr);
    if (std::string_view(s.name) == "inner") {
      EXPECT_EQ(s.depth, 0u);
    }
  }
}

// clear() empties both live and retired buffers.
TEST(TraceSpans, ClearDropsEverything) {
  ModeGuard mode(trace::Mode::kSpans);
  { trace::ScopedSpan span(g_outer_site); }
  std::thread t([] { trace::ScopedSpan span(g_inner_site); });
  t.join();
  EXPECT_GE(trace::spans_recorded(), 2u);
  trace::clear();
  EXPECT_EQ(trace::spans_recorded(), 0u);
  EXPECT_TRUE(trace::collect().empty());
}

}  // namespace
}  // namespace lacon
