// Runtime instrumentation: named counters, wall-clock timers and
// log2-bucketed histograms.
//
// The analysis hot paths (frontier expansion, the ~s/~v pair sweeps,
// valence classification) report into the process-wide `Stats::global()`
// registry. Counters, timers and histograms
// are cheap (relaxed atomics on the hot path; the registry lock is only
// taken on first lookup of a name), so they stay enabled in release builds;
// a snapshot can be rendered at any point — the bench harnesses print one
// after their tables via `lacon::runtime_report()` (analysis/reports.hpp)
// and export the same registry as a machine-readable MetricsSnapshot JSON
// via lacon::trace (runtime/trace.hpp, DESIGN.md §11).
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

// Accumulated wall-clock time plus an invocation count.
class Timer {
 public:
  void record(std::chrono::nanoseconds elapsed) noexcept {
    nanos_.fetch_add(static_cast<std::uint64_t>(elapsed.count()),
                     std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
  }
  std::uint64_t nanos() const noexcept {
    return nanos_.load(std::memory_order_relaxed);
  }
  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  void reset() noexcept {
    nanos_.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> nanos_{0};
  std::atomic<std::uint64_t> count_{0};
};

// RAII helper: records the elapsed time into `timer` on destruction.
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

// A lock-free log2-bucketed value histogram. Bucket 0 counts zero values;
// bucket b >= 1 counts values v with 2^(b-1) <= v < 2^b, so the 65 buckets
// cover the full uint64 range and a recorded latency lands in the bucket of
// its bit width. Like Counter/Timer, record() is relaxed-atomic and safe to
// call from any thread; a concurrent snapshot sees each recorded value in
// at most one bucket (sum/count and the buckets are not read atomically as
// a group, so totals read mid-record may transiently disagree by one).
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 65;

  // The bucket a value lands in: its bit width (0 for the value 0).
  static constexpr std::size_t bucket_of(std::uint64_t value) noexcept {
    return value == 0 ? 0 : static_cast<std::size_t>(std::bit_width(value));
  }
  // Inclusive lower bound of bucket b; the bucket covers
  // [bucket_lower(b), 2 * bucket_lower(b)) for b >= 1 and {0} for b == 0.
  static constexpr std::uint64_t bucket_lower(std::size_t b) noexcept {
    return b == 0 ? 0 : std::uint64_t{1} << (b - 1);
  }

  void record(std::uint64_t value) noexcept {
    buckets_[bucket_of(value)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
  }

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  std::uint64_t bucket(std::size_t b) const noexcept {
    return buckets_[b].load(std::memory_order_relaxed);
  }

  void reset() noexcept {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> count_{0};
};

// One row of a stats snapshot.
struct StatSample {
  std::string name;
  bool is_timer = false;
  std::uint64_t value = 0;  // counter value, or accumulated nanoseconds
  std::uint64_t count = 0;  // timer invocation count (0 for counters)
};

// One histogram of a stats snapshot, with the full bucket vector.
struct HistogramSample {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::array<std::uint64_t, Histogram::kBuckets> buckets{};
};

// The registry. `counter()`/`timer()`/`histogram()` return references that
// stay valid for the registry's lifetime, so hot paths look a name up once
// and keep the reference.
class Stats {
 public:
  static Stats& global();

  Counter& counter(std::string_view name);
  Timer& timer(std::string_view name);
  Histogram& histogram(std::string_view name);

  // All counter/timer samples, sorted by name (interleaved).
  std::vector<StatSample> snapshot() const;

  // All histogram samples, sorted by name.
  std::vector<HistogramSample> histogram_snapshot() const;

  // Zeroes every counter, timer and histogram; registered names persist.
  void reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Timer>, std::less<>> timers_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace lacon::runtime
