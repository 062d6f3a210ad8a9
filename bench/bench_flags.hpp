// Shared flag handling for the bench mains: --budget-ms / --max-states.
//
// Every bench accepts
//   --budget-ms=N    wall-clock budget per top-level engine call
//   --max-states=N   state budget evaluated at depth boundaries
// (space-separated value forms work too). init() strips them from argv
// before benchmark::Initialize sees them — google-benchmark aborts on
// unknown flags — and stores them in guard::process_guard_spec(), which the
// unguarded engine entry points consult; each top-level call then runs
// under a fresh Guard whose deadline counts from that call's start.
//
// The benches print their analysis tables *before* benchmark::Initialize,
// so by the time add_json_context() runs, any truncation those analyses
// suffered is recorded in the guard.trips_* stats counters and lands in the
// benchmark JSON context. Truncations during the timed benchmark loops
// appear in the runtime_report() table printed at exit instead.
//
// finish() is the common epilogue: it prints runtime_report() and writes the
// lacon.metrics.v2 snapshot to LACON_METRICS_FILE when it is set.
// bench/run_all.sh points it at the output directory so every
// BENCH_<tag>.json gains a METRICS_<tag>.json sibling.
#pragma once

#include <benchmark/benchmark.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "analysis/reports.hpp"
#include "runtime/guard.hpp"
#include "runtime/stats.hpp"

namespace lacon::benchflags {

inline bool parse_u64(const char* text, unsigned long long* out) {
  if (text == nullptr || *text < '0' || *text > '9') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE) return false;
  *out = value;
  return true;
}

inline void init(int* argc, char** argv) {
  guard::GuardSpec& spec = guard::process_guard_spec();
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    const char* arg = argv[i];
    bool is_budget;
    const char* value;
    if (std::strncmp(arg, "--budget-ms", 11) == 0 &&
        (arg[11] == '\0' || arg[11] == '=')) {
      is_budget = true;
      value = arg[11] == '=' ? arg + 12 : nullptr;
    } else if (std::strncmp(arg, "--max-states", 12) == 0 &&
               (arg[12] == '\0' || arg[12] == '=')) {
      is_budget = false;
      value = arg[12] == '=' ? arg + 13 : nullptr;
    } else {
      argv[out++] = argv[i];
      continue;
    }
    if (value == nullptr) {  // "--budget-ms 100" space-separated form
      value = (i + 1 < *argc) ? argv[++i] : "";
    }
    unsigned long long parsed = 0;
    if (!parse_u64(value, &parsed) || parsed == 0) {
      std::fprintf(stderr, "lacon: ignoring malformed %s value '%s'\n",
                   is_budget ? "--budget-ms" : "--max-states", value);
      continue;
    }
    if (is_budget) {
      spec.budget_ms = static_cast<std::int64_t>(parsed);
    } else {
      spec.max_states = static_cast<std::size_t>(parsed);
    }
  }
  for (int i = out; i < *argc; ++i) argv[i] = nullptr;
  *argc = out;
}

inline void add_json_context() {
  const guard::GuardSpec& spec = guard::process_guard_spec();
  if (!spec.limited()) return;
  if (spec.budget_ms > 0) {
    benchmark::AddCustomContext("lacon_budget_ms",
                                std::to_string(spec.budget_ms));
  }
  if (spec.max_states > 0) {
    benchmark::AddCustomContext("lacon_max_states",
                                std::to_string(spec.max_states));
  }
  std::string truncation;
  for (const runtime::StatSample& s : runtime::Stats::global().snapshot()) {
    constexpr const char* kPrefix = "guard.trips_";
    if (!s.is_timer && s.name.rfind(kPrefix, 0) == 0 && s.value > 0) {
      if (!truncation.empty()) truncation += ",";
      truncation +=
          s.name.substr(std::strlen(kPrefix)) + ":" + std::to_string(s.value);
    }
  }
  benchmark::AddCustomContext("lacon_truncation",
                              truncation.empty() ? "none" : truncation);
}

// Common bench epilogue: human-readable stats table to stdout, then the
// machine-readable metrics snapshot to the path the environment names.
inline void finish() {
  std::fputs(runtime_report().c_str(), stdout);
  runtime::write_env_artifacts();
}

}  // namespace lacon::benchflags
