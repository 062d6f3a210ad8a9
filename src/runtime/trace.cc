#include "runtime/trace.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>

#include "runtime/guard.hpp"

namespace lacon::trace {

namespace {

std::uint64_t now_ns() noexcept {
  // All spans share one process epoch so cross-thread timelines line up.
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

// One buffered event; tid lives on the owning buffer, not the event.
struct Event {
  const SpanSite* site = nullptr;
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint64_t arg = kNoArg;
  std::uint32_t depth = 0;
};

std::atomic<std::uint64_t> g_dropped{0};

// Per-thread append-only event buffer. The owner thread is the only writer:
// it writes the next slot, then publishes the new size with a release store.
// Readers (collect/export, possibly on another thread) take the chunk-list
// mutex, read the published size with acquire, and only touch slots below
// it — so emission stays lock-free except on the cold chunk roll, and
// concurrent collection is race-free even while other threads are writing.
class SpanBuffer {
 public:
  static constexpr std::size_t kChunkEvents = 4096;
  // Per-thread cap: a runaway spans-mode loop degrades to dropped-event
  // accounting instead of unbounded memory.
  static constexpr std::size_t kMaxEvents = 1 << 20;

  void push(const Event& e) {
    const std::size_t i = size_.load(std::memory_order_relaxed);
    if (i >= kMaxEvents) {
      g_dropped.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (i == capacity_) {
      std::lock_guard<std::mutex> lock(chunks_mu_);
      chunks_.push_back(std::make_unique<Chunk>());
      capacity_ += kChunkEvents;
    }
    chunks_[i / kChunkEvents]->events[i % kChunkEvents] = e;
    size_.store(i + 1, std::memory_order_release);
  }

  void snapshot_into(std::uint32_t tid, std::vector<CollectedSpan>& out) const {
    std::lock_guard<std::mutex> lock(chunks_mu_);
    const std::size_t n = size_.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < n; ++i) {
      const Event& e = chunks_[i / kChunkEvents]->events[i % kChunkEvents];
      out.push_back(CollectedSpan{e.site->category, e.site->name, tid,
                                  e.depth, e.start_ns, e.dur_ns, e.arg});
    }
  }

  std::size_t size() const noexcept {
    return size_.load(std::memory_order_acquire);
  }

  // Quiescent-only (see trace::clear()): drops the events but keeps the
  // allocated chunks for reuse.
  void clear() noexcept { size_.store(0, std::memory_order_release); }

 private:
  struct Chunk {
    std::array<Event, kChunkEvents> events;
  };

  mutable std::mutex chunks_mu_;
  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::size_t capacity_ = 0;  // owner-written under chunks_mu_
  std::atomic<std::size_t> size_{0};
};

struct ThreadState {
  SpanBuffer buffer;
  std::uint32_t tid = 0;
  std::uint32_t depth = 0;  // owner-thread-only nesting counter
};

// Live buffers plus buffers of exited threads (a finished connection thread
// must not lose its spans). Leaked so thread_local
// destructors running at process exit still find it alive.
struct Registry {
  std::mutex mu;
  std::vector<ThreadState*> live;
  std::vector<std::unique_ptr<ThreadState>> retired;
  std::uint32_t next_tid = 0;
};

Registry& registry() {
  static Registry* instance = new Registry();
  return *instance;
}

struct ThreadStateHolder {
  ThreadState* state;

  ThreadStateHolder() : state(new ThreadState()) {
    Registry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mu);
    state->tid = reg.next_tid++;
    reg.live.push_back(state);
  }
  ~ThreadStateHolder() {
    Registry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mu);
    reg.live.erase(std::find(reg.live.begin(), reg.live.end(), state));
    reg.retired.emplace_back(state);
  }
};

ThreadState& thread_state() {
  thread_local ThreadStateHolder holder;
  return *holder.state;
}

void append_json_escaped(std::string& out, const char* text) {
  for (const char* p = text; *p != '\0'; ++p) {
    const char c = *p;
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
}

void append_key(std::string& out, const std::string& key) {
  out += '"';
  append_json_escaped(out, key.c_str());
  out += "\":";
}

bool write_text_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "lacon: cannot open '%s' for writing\n",
                 path.c_str());
    return false;
  }
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  std::fclose(f);
  if (!ok) {
    std::fprintf(stderr, "lacon: short write to '%s'\n", path.c_str());
  }
  return ok;
}

}  // namespace

const char* to_string(Mode mode) noexcept {
  switch (mode) {
    case Mode::kOff:
      return "off";
    case Mode::kCounters:
      return "counters";
    case Mode::kSpans:
      return "spans";
  }
  return "?";
}

Mode parse_mode(const char* text, Mode fallback) noexcept {
  if (text == nullptr || *text == '\0') return fallback;
  if (std::strcmp(text, "off") == 0) return Mode::kOff;
  if (std::strcmp(text, "counters") == 0) return Mode::kCounters;
  if (std::strcmp(text, "spans") == 0) return Mode::kSpans;
  static std::atomic<bool> warned{false};
  if (!warned.exchange(true)) {
    std::fprintf(stderr,
                 "lacon: ignoring malformed LACON_TRACE='%s', using '%s'\n",
                 text, to_string(fallback));
  }
  return fallback;
}

namespace detail {

std::atomic<std::uint8_t> g_mode_plus_one{0};

Mode mode_slow() noexcept {
  const Mode m = parse_mode(std::getenv("LACON_TRACE"), Mode::kOff);
  std::uint8_t expected = 0;
  g_mode_plus_one.compare_exchange_strong(
      expected, static_cast<std::uint8_t>(static_cast<std::uint8_t>(m) + 1),
      std::memory_order_relaxed);
  // A concurrent set_mode() wins the race; re-read either way.
  return static_cast<Mode>(
      g_mode_plus_one.load(std::memory_order_relaxed) - 1);
}

}  // namespace detail

void set_mode(Mode mode) noexcept {
  detail::g_mode_plus_one.store(
      static_cast<std::uint8_t>(static_cast<std::uint8_t>(mode) + 1),
      std::memory_order_relaxed);
}

runtime::Histogram& SpanSite::histogram() {
  runtime::Histogram* h = hist.load(std::memory_order_acquire);
  if (h == nullptr) {
    std::string key = "span.";
    key += category;
    key += '.';
    key += name;
    h = &runtime::Stats::global().histogram(key);
    hist.store(h, std::memory_order_release);  // idempotent: same target
  }
  return *h;
}

void ScopedSpan::begin(SpanSite* site, std::uint64_t arg) noexcept {
  site_ = site;
  arg_ = arg;
  start_ns_ = now_ns();
  if (mode() == Mode::kSpans) {
    ThreadState& ts = thread_state();
    depth_ = ts.depth++;
    thread_state_ = &ts;
  }
}

void ScopedSpan::finish() noexcept {
  const std::uint64_t dur = now_ns() - start_ns_;
  site_->histogram().record(dur);
  if (thread_state_ != nullptr) {
    auto& ts = *static_cast<ThreadState*>(thread_state_);
    --ts.depth;
    ts.buffer.push(Event{site_, start_ns_, dur, arg_, ts.depth});
  }
}

std::vector<CollectedSpan> collect() {
  std::vector<CollectedSpan> out;
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  for (const ThreadState* ts : reg.live) {
    ts->buffer.snapshot_into(ts->tid, out);
  }
  for (const auto& ts : reg.retired) {
    ts->buffer.snapshot_into(ts->tid, out);
  }
  std::sort(out.begin(), out.end(),
            [](const CollectedSpan& a, const CollectedSpan& b) {
              return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                              : a.tid < b.tid;
            });
  return out;
}

void clear() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  for (ThreadState* ts : reg.live) ts->buffer.clear();
  reg.retired.clear();
  g_dropped.store(0, std::memory_order_relaxed);
}

std::size_t spans_recorded() {
  std::size_t total = 0;
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  for (const ThreadState* ts : reg.live) total += ts->buffer.size();
  for (const auto& ts : reg.retired) total += ts->buffer.size();
  return total;
}

std::size_t spans_dropped() noexcept {
  return g_dropped.load(std::memory_order_relaxed);
}

std::string chrome_trace_json() {
  const std::vector<CollectedSpan> spans = collect();
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  // Thread-name metadata so Perfetto labels the per-thread tracks.
  std::vector<std::uint32_t> tids;
  for (const CollectedSpan& s : spans) tids.push_back(s.tid);
  std::sort(tids.begin(), tids.end());
  tids.erase(std::unique(tids.begin(), tids.end()), tids.end());
  char buf[160];
  for (const std::uint32_t tid : tids) {
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                  "\"tid\":%u,\"args\":{\"name\":\"lacon-%u\"}}",
                  first ? "" : ",", tid, tid);
    out += buf;
    first = false;
  }
  for (const CollectedSpan& s : spans) {
    out += first ? "{" : ",{";
    first = false;
    out += "\"name\":\"";
    append_json_escaped(out, s.category);
    out += '.';
    append_json_escaped(out, s.name);
    out += "\",\"cat\":\"";
    append_json_escaped(out, s.category);
    out += "\",";
    // Timestamps are microseconds in the trace-event format; keep ns
    // precision as fractional digits.
    std::snprintf(buf, sizeof(buf),
                  "\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                  "\"dur\":%.3f",
                  s.tid, static_cast<double>(s.start_ns) / 1000.0,
                  static_cast<double>(s.dur_ns) / 1000.0);
    out += buf;
    std::snprintf(buf, sizeof(buf), ",\"args\":{\"depth\":%u", s.depth);
    out += buf;
    if (s.arg != kNoArg) {
      std::snprintf(buf, sizeof(buf), ",\"arg\":%llu",
                    static_cast<unsigned long long>(s.arg));
      out += buf;
    }
    out += "}}";
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

bool write_chrome_trace(const std::string& path) {
  return write_text_file(path, chrome_trace_json());
}

MetricsSnapshot MetricsSnapshot::capture() {
  MetricsSnapshot snap;
  snap.trace_mode = mode();
  const guard::GuardSpec& spec = guard::process_guard_spec();
  snap.guard_budget_ms = spec.budget_ms;
  snap.guard_max_states = spec.max_states;
  snap.stats = runtime::Stats::global().snapshot();
  snap.histograms = runtime::Stats::global().histogram_snapshot();
  snap.spans_recorded = ::lacon::trace::spans_recorded();
  snap.spans_dropped = ::lacon::trace::spans_dropped();
  return snap;
}

std::string MetricsSnapshot::to_json() const {
  std::string out = "{\"schema\":\"lacon.metrics.v1\",";
  char buf[96];
  out += "\"trace_mode\":\"";
  out += trace::to_string(trace_mode);
  out += "\",";

  // Guard block: configured budgets plus the sticky trip counters (also
  // present in "counters" as guard.trips_*; surfaced here so a consumer can
  // tell "truncated run" apart without string-prefix matching).
  std::uint64_t trips_deadline = 0, trips_state = 0;
  for (const runtime::StatSample& s : stats) {
    if (s.is_timer) continue;
    if (s.name == "guard.trips_deadline") trips_deadline = s.value;
    if (s.name == "guard.trips_state_budget") trips_state = s.value;
  }
  std::snprintf(buf, sizeof(buf),
                "\"guard\":{\"budget_ms\":%lld,\"max_states\":%llu,",
                static_cast<long long>(guard_budget_ms),
                static_cast<unsigned long long>(guard_max_states));
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "\"trips\":{\"deadline\":%llu,\"state_budget\":%llu}},",
                static_cast<unsigned long long>(trips_deadline),
                static_cast<unsigned long long>(trips_state));
  out += buf;

  out += "\"counters\":{";
  bool first = true;
  for (const runtime::StatSample& s : stats) {
    if (s.is_timer) continue;
    if (!first) out += ',';
    first = false;
    append_key(out, s.name);
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(s.value));
    out += buf;
  }
  out += "},\"timers\":{";
  first = true;
  for (const runtime::StatSample& s : stats) {
    if (!s.is_timer) continue;
    if (!first) out += ',';
    first = false;
    append_key(out, s.name);
    std::snprintf(buf, sizeof(buf), "{\"ns\":%llu,\"calls\":%llu}",
                  static_cast<unsigned long long>(s.value),
                  static_cast<unsigned long long>(s.count));
    out += buf;
  }
  out += "},\"histograms\":{";
  first = true;
  for (const runtime::HistogramSample& h : histograms) {
    if (!first) out += ',';
    first = false;
    append_key(out, h.name);
    std::snprintf(buf, sizeof(buf), "{\"count\":%llu,\"sum\":%llu,",
                  static_cast<unsigned long long>(h.count),
                  static_cast<unsigned long long>(h.sum));
    out += buf;
    // Sparse bucket encoding: [lower_bound, count] pairs, non-empty only.
    out += "\"buckets\":[";
    bool first_bucket = true;
    for (std::size_t b = 0; b < runtime::Histogram::kBuckets; ++b) {
      if (h.buckets[b] == 0) continue;
      if (!first_bucket) out += ',';
      first_bucket = false;
      std::snprintf(buf, sizeof(buf), "[%llu,%llu]",
                    static_cast<unsigned long long>(
                        runtime::Histogram::bucket_lower(b)),
                    static_cast<unsigned long long>(h.buckets[b]));
      out += buf;
    }
    out += "]}";
  }
  std::snprintf(buf, sizeof(buf),
                "},\"spans\":{\"recorded\":%llu,\"dropped\":%llu}}",
                static_cast<unsigned long long>(spans_recorded),
                static_cast<unsigned long long>(spans_dropped));
  out += buf;
  return out;
}

std::string metrics_snapshot_json() {
  return MetricsSnapshot::capture().to_json();
}

bool write_metrics_snapshot(const std::string& path) {
  return write_text_file(path, metrics_snapshot_json());
}

void write_env_artifacts() {
  if (const char* path = std::getenv("LACON_METRICS_FILE");
      path != nullptr && *path != '\0') {
    if (write_metrics_snapshot(path)) {
      std::fprintf(stderr, "lacon: wrote metrics snapshot %s\n", path);
    }
  }
  if (mode() == Mode::kSpans) {
    if (const char* path = std::getenv("LACON_TRACE_FILE");
        path != nullptr && *path != '\0') {
      if (write_chrome_trace(path)) {
        std::fprintf(stderr, "lacon: wrote trace %s (Perfetto-loadable)\n",
                     path);
      }
    }
  }
}

}  // namespace lacon::trace
