// Tests for lacon::trace (src/runtime/trace.{hpp,cc}) and the span
// Histogram (src/runtime/stats.hpp): bucket boundaries, the off-mode
// emits-nothing contract, span nesting and thread attribution as seen
// through the Chrome trace-event export, MetricsSnapshot determinism
// across worker counts, and a kTaskBody fault soak with tracing on (ci.sh
// re-runs this binary under TSan and ASan with LACON_TRACE=spans, which is
// what proves the span-buffer publish protocol race-free).
//
// Mode is process-global state, so every test that flips it restores
// Mode::kOff and clears the buffers on exit; tests in this binary are safe
// in any order but must not run concurrently with each other (gtest's
// default).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "analysis/reports.hpp"
#include "engine/explore.hpp"
#include "runtime/fault.hpp"
#include "runtime/parallel.hpp"
#include "runtime/stats.hpp"
#include "runtime/thread_pool.hpp"
#include "runtime/trace.hpp"

namespace lacon {
namespace {

using runtime::Histogram;
using runtime::WorkerCountOverride;

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
constinit trace::SpanSite g_instant_site{"test", "tick"};

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

TEST(TraceOff, SpansAndInstantsEmitNothing) {
  trace::set_mode(trace::Mode::kOff);
  trace::clear();
  const std::uint64_t before = g_outer_site.histogram().count();
  {
    trace::ScopedSpan outer(g_outer_site, 7);
    trace::ScopedSpan inner(g_inner_site);
    trace::instant(g_instant_site);
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

// --- Spans mode: nesting, instants, thread attribution -----------------

TEST(TraceSpans, RecordsNestingDepthAndArgs) {
  ModeGuard mode(trace::Mode::kSpans);
  trace::clear();
  {
    trace::ScopedSpan outer(g_outer_site, 42);
    trace::ScopedSpan inner(g_inner_site);
    trace::instant(g_instant_site, 3);
  }
  const std::vector<trace::CollectedSpan> spans = trace::collect();
  ASSERT_EQ(spans.size(), 3u);
  // Sorted by start time: outer opened first.
  EXPECT_STREQ(spans[0].name, "outer");
  EXPECT_EQ(spans[0].depth, 0u);
  EXPECT_EQ(spans[0].arg, 42u);
  EXPECT_FALSE(spans[0].is_instant);
  EXPECT_STREQ(spans[1].name, "inner");
  EXPECT_EQ(spans[1].depth, 1u);
  EXPECT_STREQ(spans[2].name, "tick");
  EXPECT_TRUE(spans[2].is_instant);
  EXPECT_EQ(spans[2].arg, 3u);
  // Containment: inner starts after outer and ends no later.
  EXPECT_GE(spans[1].start_ns, spans[0].start_ns);
  EXPECT_LE(spans[1].start_ns + spans[1].dur_ns,
            spans[0].start_ns + spans[0].dur_ns);
  // All on the calling thread.
  EXPECT_EQ(spans[0].tid, spans[1].tid);
  EXPECT_EQ(spans[0].tid, spans[2].tid);
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

TEST(TraceSpans, PhaseScopeNamesWorkerChunks) {
  ModeGuard mode(trace::Mode::kSpans);
  WorkerCountOverride workers(4);
  trace::clear();
  {
    LACON_TRACE_PHASE("test", "phased", 64);
    std::atomic<std::size_t> count{0};
    runtime::parallel_for(64, [&](std::size_t) {
      count.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(count.load(), 64u);
  }
  const std::vector<trace::CollectedSpan> spans = trace::collect();
  // The phase span itself plus one chunk span per executed chunk, all
  // attributed to the phase's site name.
  std::size_t phased = 0;
  for (const auto& s : spans) {
    if (std::string_view(s.name) == "phased") ++phased;
  }
  EXPECT_GE(phased, 2u) << "chunk spans did not inherit the phase name";
  EXPECT_EQ(trace::current_phase(), nullptr);
}

// Serial attribution: at one worker the layer computations still run in
// explore's expand phase, so their time is charged to explore.expand and
// the merge only walks the cached layers.
TEST(TraceSpans, SerialExploreChargesLayerWorkToExpand) {
  ModeGuard mode(trace::Mode::kSpans);
  WorkerCountOverride workers(1);
  trace::clear();
  auto rule = min_after_round(2);
  auto model = make_model(ModelKind::kMobile, 4, 1, *rule);
  reachable_by_depth(*model, 3);
  std::uint64_t expand_ns = 0;
  std::uint64_t merge_ns = 0;
  for (const trace::CollectedSpan& s : trace::collect()) {
    if (s.is_instant || std::string_view(s.category) != "explore") continue;
    if (std::string_view(s.name) == "expand") expand_ns += s.dur_ns;
    if (std::string_view(s.name) == "merge") merge_ns += s.dur_ns;
  }
  EXPECT_GT(merge_ns, 0u);
  EXPECT_GT(expand_ns, merge_ns);
}

TEST(TraceSpans, ChromeExportCarriesEventsAndThreadNames) {
  ModeGuard mode(trace::Mode::kSpans);
  trace::clear();
  {
    trace::ScopedSpan outer(g_outer_site, 9);
    trace::ScopedSpan inner(g_inner_site);
    trace::instant(g_instant_site);
  }
  const std::string json = trace::chrome_trace_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"test.outer\""), std::string::npos);
  EXPECT_NE(json.find("\"test.inner\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
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
  EXPECT_NE(a.find("\"span.test.outer\""), std::string::npos);
}

// The analysis counters in the snapshot must not depend on the worker
// count: the engine's determinism contract extends to its observability.
TEST(MetricsSnapshot, EngineCountersMatchAcrossWorkerCounts) {
  auto run_and_grab = [](unsigned workers) {
    WorkerCountOverride scoped(workers);
    runtime::Stats::global().reset();
    static const auto rule = min_when_all_known(1);  // outlives the model
    auto model = make_model(ModelKind::kMobile, 3, 1, *rule);
    reachable_by_depth(*model, 2);
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    for (const runtime::StatSample& s :
         runtime::Stats::global().snapshot()) {
      // Pool scheduling counters vary with the worker count by design, and
      // so do the arena contention counters (shard_waits counts try-lock
      // failures; racing idempotent layer computations add extra
      // hit-interns). Everything the *engine* counts must not.
      if (s.is_timer || s.name.rfind("pool.", 0) == 0 ||
          s.name.rfind("arena.", 0) == 0) {
        continue;
      }
      counters.emplace_back(s.name, s.value);
    }
    return counters;
  };
  const auto serial = run_and_grab(1);
  const auto parallel = run_and_grab(4);
  EXPECT_EQ(serial, parallel);
  runtime::Stats::global().reset();
}

// --- Fault soak with tracing on ----------------------------------------

// A task-body fault mid-section must not corrupt the span buffers: the
// throwing chunk's span unwinds, the section rethrows, and both tracing
// and the pool stay usable. Under TSan/ASan (ci.sh soak) this doubles as
// the race/leak check for the unwind path.
TEST(TraceFaultSoak, TaskBodyFaultsWithTracingOn) {
  ModeGuard mode(trace::Mode::kSpans);
  std::uint64_t seed = 20260805;
  if (const auto env = fault::config_from_env()) seed = env->seed;
  for (unsigned workers : {1u, 4u}) {
    WorkerCountOverride scoped(workers);
    trace::clear();
    {
      fault::FaultScope scope(
          seed, 1.0, 1u << static_cast<unsigned>(fault::Site::kTaskBody));
      LACON_TRACE_PHASE("test", "soak", 400);
      EXPECT_THROW(runtime::parallel_for(400, [](std::size_t) {}),
                   fault::InjectedFault)
          << "workers=" << workers;
    }
    // Tracing still works after the unwind...
    {
      trace::ScopedSpan span(g_outer_site);
      std::atomic<std::size_t> count{0};
      runtime::parallel_for(100, [&](std::size_t) {
        count.fetch_add(1, std::memory_order_relaxed);
      });
      EXPECT_EQ(count.load(), 100u) << "workers=" << workers;
    }
    // ...and the collected events are well-formed (every span closed).
    for (const trace::CollectedSpan& s : trace::collect()) {
      EXPECT_NE(s.name, nullptr);
      if (!s.is_instant) {
        EXPECT_GE(s.dur_ns, 0u);
      }
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
