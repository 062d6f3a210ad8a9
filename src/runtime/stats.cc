#include "runtime/stats.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "runtime/guard.hpp"

namespace lacon::runtime {

Stats& Stats::global() {
  static Stats* instance = new Stats();  // leaked: outlives all users
  return *instance;
}

Counter& Stats::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Timer& Stats::timer(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = timers_.find(name);
  if (it == timers_.end()) {
    it = timers_.emplace(std::string(name), std::make_unique<Timer>()).first;
  }
  return *it->second;
}

std::vector<StatSample> Stats::snapshot() const {
  std::vector<StatSample> out;
  std::lock_guard<std::mutex> lock(mu_);
  out.reserve(counters_.size() + timers_.size());
  for (const auto& [name, c] : counters_) {
    out.push_back(StatSample{name, false, c->value(), 0, {}});
  }
  for (const auto& [name, t] : timers_) {
    StatSample& s = out.emplace_back(StatSample{name, true, t->nanos(),
                                                t->count(), {}});
    for (std::size_t b = 0; b < Timer::kBuckets; ++b) {
      s.buckets[b] = t->bucket(b);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const StatSample& a, const StatSample& b) {
              return a.name < b.name;
            });
  return out;
}

void Stats::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, t] : timers_) t->reset();
}

namespace {

void append_key(std::string& out, const std::string& key) {
  out += '"';
  for (const char c : key) {
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
  out += "\":";
}

}  // namespace

std::string metrics_snapshot_json() {
  const guard::GuardSpec& spec = guard::process_guard_spec();
  const std::vector<StatSample> stats = Stats::global().snapshot();
  std::string out = "{\"schema\":\"lacon.metrics.v2\",";

  // Guard block: configured budgets plus the sticky trip counters (also
  // present in "counters" as guard.trips_*; surfaced here so a consumer can
  // tell "truncated run" apart without string-prefix matching).
  std::uint64_t trips_deadline = 0, trips_state = 0;
  for (const StatSample& s : stats) {
    if (s.is_timer) continue;
    if (s.name == "guard.trips_deadline") trips_deadline = s.value;
    if (s.name == "guard.trips_state_budget") trips_state = s.value;
  }
  out += "\"guard\":{\"budget_ms\":";
  out += std::to_string(spec.budget_ms);
  out += ",\"max_states\":";
  out += std::to_string(spec.max_states);
  out += ",\"trips\":{\"deadline\":";
  out += std::to_string(trips_deadline);
  out += ",\"state_budget\":";
  out += std::to_string(trips_state);
  out += "}},";

  out += "\"counters\":{";
  bool first = true;
  for (const StatSample& s : stats) {
    if (s.is_timer) continue;
    if (!first) out += ',';
    first = false;
    append_key(out, s.name);
    out += std::to_string(s.value);
  }
  out += "},\"timers\":{";
  first = true;
  for (const StatSample& s : stats) {
    if (!s.is_timer) continue;
    if (!first) out += ',';
    first = false;
    append_key(out, s.name);
    // Sparse bucket encoding: [lower_bound_ns, count] pairs, non-empty only.
    out += "{\"buckets\":[";
    bool first_bucket = true;
    for (std::size_t b = 0; b < Timer::kBuckets; ++b) {
      if (s.buckets[b] == 0) continue;
      if (!first_bucket) out += ',';
      first_bucket = false;
      out += '[';
      out += std::to_string(Timer::bucket_lower(b));
      out += ',';
      out += std::to_string(s.buckets[b]);
      out += ']';
    }
    out += "],\"calls\":";
    out += std::to_string(s.count);
    out += ",\"ns\":";
    out += std::to_string(s.value);
    out += '}';
  }
  out += "}}";
  return out;
}

void write_env_artifacts() {
  const char* path = std::getenv("LACON_METRICS_FILE");
  if (path == nullptr || *path == '\0') return;
  const std::string text = metrics_snapshot_json();
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "lacon: cannot open '%s' for writing\n", path);
    return;
  }
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  if (std::fclose(f) != 0 || !ok) {
    std::fprintf(stderr, "lacon: short write to '%s'\n", path);
    return;
  }
  std::fprintf(stderr, "lacon: wrote metrics snapshot %s\n", path);
}

}  // namespace lacon::runtime
