// Tests for the phase timers (src/runtime/stats.hpp): the log2 bucket
// boundaries, recording into the buckets and the totals, the invariant that
// a timer's buckets sum to its calls and its durations to its nanos (also
// under concurrent recorders), lacon.metrics.v2 determinism, and an
// injected allocation failure that unwinds through explore's timer (ci.sh
// re-runs this binary under TSan and ASan).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "analysis/reports.hpp"
#include "engine/explore.hpp"
#include "runtime/fault.hpp"
#include "runtime/stats.hpp"

namespace lacon {
namespace {

using runtime::Timer;

std::uint64_t bucket_total(const Timer& t) {
  std::uint64_t total = 0;
  for (std::size_t b = 0; b < Timer::kBuckets; ++b) total += t.bucket(b);
  return total;
}

// --- Bucket boundaries -------------------------------------------------

TEST(Histogram, BucketOfPowerOfTwoBoundaries) {
  // Bucket 0 holds exactly the value 0; bucket b >= 1 holds
  // [2^(b-1), 2^b).
  EXPECT_EQ(Timer::bucket_of(0), 0u);
  EXPECT_EQ(Timer::bucket_of(1), 1u);
  EXPECT_EQ(Timer::bucket_of(2), 2u);
  EXPECT_EQ(Timer::bucket_of(3), 2u);
  EXPECT_EQ(Timer::bucket_of(4), 3u);
  EXPECT_EQ(Timer::bucket_of(7), 3u);
  EXPECT_EQ(Timer::bucket_of(8), 4u);
  EXPECT_EQ(Timer::bucket_of(1023), 10u);
  EXPECT_EQ(Timer::bucket_of(1024), 11u);
  EXPECT_EQ(Timer::bucket_of(~std::uint64_t{0}), 64u);
}

TEST(Histogram, BucketLowerInvertsBucketOf) {
  for (std::size_t b = 0; b < Timer::kBuckets; ++b) {
    const std::uint64_t lower = Timer::bucket_lower(b);
    EXPECT_EQ(Timer::bucket_of(lower), b) << "bucket " << b;
    if (lower > 0) {
      EXPECT_EQ(Timer::bucket_of(lower - 1), b - 1) << "bucket " << b;
    }
  }
}

// --- Recording ---------------------------------------------------------

TEST(Histogram, RecordAccumulatesCountSumAndBuckets) {
  Timer t;
  for (const int ns : {0, 1, 5, 5}) t.record(std::chrono::nanoseconds(ns));
  EXPECT_EQ(t.count(), 4u);
  EXPECT_EQ(t.nanos(), 11u);
  EXPECT_EQ(t.bucket(0), 1u);  // value 0
  EXPECT_EQ(t.bucket(1), 1u);  // value 1
  EXPECT_EQ(t.bucket(3), 2u);  // values in [4, 8)
  t.reset();
  EXPECT_EQ(t.count(), 0u);
  EXPECT_EQ(t.nanos(), 0u);
  EXPECT_EQ(bucket_total(t), 0u);
}

TEST(Histogram, ConcurrentRecordLosesNothing) {
  Timer t;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int k = 0; k < kThreads; ++k) {
    threads.emplace_back([&t] {
      for (int i = 0; i < kPerThread; ++i) {
        t.record(std::chrono::nanoseconds(i));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(t.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

// Four threads record known durations into one registry timer, and time
// scopes into another: each timer's buckets sum to its calls, the known
// durations sum to nanos() and fill exactly their own buckets, and the
// scoped durations' total lies within what their buckets allow.
TEST(Histogram, BucketsSumToCallsAndValuesToNanos) {
  auto& stats = runtime::Stats::global();
  Timer& known = stats.timer("test.known_time");
  Timer& scoped = stats.timer("test.scoped_time");
  known.reset();
  scoped.reset();
  constexpr std::uint64_t kThreads = 4;
  constexpr std::uint64_t kPerThread = 5000;
  std::vector<std::thread> threads;
  for (std::uint64_t k = 0; k < kThreads; ++k) {
    threads.emplace_back([&, k] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        known.record(std::chrono::nanoseconds(k * kPerThread + i));
        runtime::ScopedTimer scope(scoped);
      }
    });
  }
  for (auto& th : threads) th.join();

  constexpr std::uint64_t kCalls = kThreads * kPerThread;
  EXPECT_EQ(known.count(), kCalls);
  EXPECT_EQ(known.nanos(), kCalls * (kCalls - 1) / 2);
  std::vector<std::uint64_t> want(Timer::kBuckets, 0);
  for (std::uint64_t v = 0; v < kCalls; ++v) ++want[Timer::bucket_of(v)];
  for (std::size_t b = 0; b < Timer::kBuckets; ++b) {
    EXPECT_EQ(known.bucket(b), want[b]) << "bucket " << b;
  }

  EXPECT_EQ(scoped.count(), kCalls);
  std::uint64_t low = 0;
  std::uint64_t high = 0;
  for (std::size_t b = 0; b < Timer::kBuckets; ++b) {
    low += scoped.bucket(b) * Timer::bucket_lower(b);
    high += scoped.bucket(b) * (b == 0 ? 0 : 2 * Timer::bucket_lower(b) - 1);
  }
  EXPECT_GE(scoped.nanos(), low);
  EXPECT_LE(scoped.nanos(), high);

  for (const runtime::StatSample& s : stats.snapshot()) {
    if (!s.is_timer) continue;
    std::uint64_t total = 0;
    for (const std::uint64_t c : s.buckets) total += c;
    EXPECT_EQ(total, s.count) << s.name;
  }
}

// --- lacon.metrics.v2 --------------------------------------------------

TEST(MetricsSnapshot, JsonIsDeterministicForFixedStats) {
  Timer& t = runtime::Stats::global().timer("test.snapshot_time");
  t.reset();
  t.record(std::chrono::nanoseconds(5));
  t.record(std::chrono::nanoseconds(6));
  t.record(std::chrono::nanoseconds(1024));
  const std::string a = runtime::metrics_snapshot_json();
  const std::string b = runtime::metrics_snapshot_json();
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.rfind("{\"schema\":\"lacon.metrics.v2\",", 0), 0u);
  EXPECT_NE(a.find("\"guard\":{\"budget_ms\":0,\"max_states\":0,"
                   "\"trips\":{\"deadline\":"),
            std::string::npos);
  // A timer row: sorted keys, sparse [lower_bound, count] buckets.
  EXPECT_NE(a.find("\"test.snapshot_time\":{\"buckets\":[[4,2],[1024,1]],"
                   "\"calls\":3,\"ns\":1035}"),
            std::string::npos);
  for (const char* gone : {"trace_mode", "histograms", "spans"}) {
    EXPECT_EQ(a.find(gone), std::string::npos) << gone;
  }
}

// --- Fault soak --------------------------------------------------------

// An injected allocation failure mid-exploration unwinds through explore's
// ScopedTimer (the unguarded call propagates it): the timer records exactly
// that one call, and the registry stays usable afterwards. Under TSan/ASan
// (ci.sh soak) this doubles as the race/leak check for the unwind path.
TEST(TraceFaultSoak, TaskBodyFaultsWithTracingOn) {
  std::uint64_t seed = 20260805;
  if (const auto env = fault::config_from_env()) seed = env->seed;
  auto& stats = runtime::Stats::global();
  Timer& expand = stats.timer("explore.expand_time");
  auto rule = min_after_round(2);
  auto model = make_model(ModelKind::kMobile, 3, 1, *rule);
  model->initial_states();  // interned before the plan: Con_0 is cached
  const std::uint64_t before = expand.count();
  {
    fault::FaultScope scope(
        seed, 1.0, 1u << static_cast<unsigned>(fault::Site::kArenaAlloc));
    EXPECT_THROW(reachable_by_depth(*model, 2), fault::InjectedAllocError);
  }
  EXPECT_EQ(expand.count(), before + 1);
  EXPECT_EQ(bucket_total(expand), expand.count());

  // The registry still records and renders after the unwind.
  auto fresh = make_model(ModelKind::kMobile, 3, 1, *rule);
  EXPECT_EQ(reachable_by_depth(*fresh, 2).size(), 3u);
  EXPECT_EQ(expand.count(), before + 2);
  EXPECT_EQ(bucket_total(expand), expand.count());
  EXPECT_NE(runtime::metrics_snapshot_json().find("\"explore.expand_time\""),
            std::string::npos);
}

}  // namespace
}  // namespace lacon
