// Runtime instrumentation: named counters and phase timers.
//
// The analysis hot paths (frontier expansion, the ~s/~v pair sweeps,
// valence classification) report into the process-wide `Stats::global()`
// registry. Counters and timers are cheap (relaxed atomics on the hot path;
// the registry lock is only taken when a name is looked up), so they stay
// enabled in release builds. A snapshot can be rendered at any point: the
// bench harnesses print one after their tables via `lacon::runtime_report()`
// (analysis/reports.hpp) and export the same registry as the
// machine-readable `lacon.metrics.v2` document below (DESIGN.md §11).
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace lacon::runtime {

// A monotonically increasing event counter.
class Counter {
 public:
  void add(std::uint64_t delta) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  void increment() noexcept { add(1); }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

// One phase's wall-clock time: total nanoseconds, an invocation count and a
// log2 histogram of the recorded durations. Bucket 0 counts zero durations;
// bucket b >= 1 counts durations d with 2^(b-1) <= d < 2^b ns, so the 65
// buckets cover the full uint64 range and a duration lands in the bucket of
// its bit width. record() is relaxed-atomic and safe from any thread. The
// buckets and the totals are not read atomically as a group, so a reader
// racing a record() may see them disagree by that one record.
class Timer {
 public:
  static constexpr std::size_t kBuckets = 65;

  // The bucket a duration lands in: its bit width (0 for 0 ns).
  static constexpr std::size_t bucket_of(std::uint64_t ns) noexcept {
    return static_cast<std::size_t>(std::bit_width(ns));
  }
  // Inclusive lower bound of bucket b; the bucket covers
  // [bucket_lower(b), 2 * bucket_lower(b)) for b >= 1 and {0} for b == 0.
  static constexpr std::uint64_t bucket_lower(std::size_t b) noexcept {
    return b == 0 ? 0 : std::uint64_t{1} << (b - 1);
  }

  void record(std::chrono::nanoseconds elapsed) noexcept {
    const auto ns = static_cast<std::uint64_t>(elapsed.count());
    buckets_[bucket_of(ns)].fetch_add(1, std::memory_order_relaxed);
    nanos_.fetch_add(ns, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
  }
  std::uint64_t nanos() const noexcept {
    return nanos_.load(std::memory_order_relaxed);
  }
  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  std::uint64_t bucket(std::size_t b) const noexcept {
    return buckets_[b].load(std::memory_order_relaxed);
  }
  void reset() noexcept {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    nanos_.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> nanos_{0};
  std::atomic<std::uint64_t> count_{0};
};

// RAII helper: records the elapsed time into `timer` on destruction, also
// when the scope unwinds by an exception.
class ScopedTimer {
 public:
  explicit ScopedTimer(Timer& timer)
      : timer_(timer), start_(std::chrono::steady_clock::now()) {}
  ~ScopedTimer() {
    timer_.record(std::chrono::steady_clock::now() - start_);
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Timer& timer_;
  std::chrono::steady_clock::time_point start_;
};

// One row of a stats snapshot.
struct StatSample {
  std::string name;
  bool is_timer = false;
  std::uint64_t value = 0;  // counter value, or accumulated nanoseconds
  std::uint64_t count = 0;  // timer invocation count (0 for counters)
  std::array<std::uint64_t, Timer::kBuckets> buckets{};  // timers only
};

// The registry. `counter()`/`timer()` return references that stay valid
// for the registry's lifetime, so hot paths look a name up once and keep
// the reference.
class Stats {
 public:
  static Stats& global();

  Counter& counter(std::string_view name);
  Timer& timer(std::string_view name);

  // All counter/timer samples, sorted by name (interleaved).
  std::vector<StatSample> snapshot() const;

  // Zeroes every counter and timer; registered names persist.
  void reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Timer>, std::less<>> timers_;
};

// The global registry plus the process guard spec and its trip counters as
// one JSON document, schema "lacon.metrics.v2" (DESIGN.md §11 gives the
// field-by-field contract). Names and each timer row's keys are sorted, so
// two runs that record the same stats serialize identically.
std::string metrics_snapshot_json();

// Writes metrics_snapshot_json() to $LACON_METRICS_FILE when it is set. The
// bench harnesses and laconrd call this at exit; bench/run_all.sh points it
// next to each BENCH_*.json.
void write_env_artifacts();

}  // namespace lacon::runtime
