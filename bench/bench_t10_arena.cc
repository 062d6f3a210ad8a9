// T10 — Hash-consing arena interning (core/state.hpp).
//
// Intern microbench on one writer, under two key-set regimes — disjoint
// (each op interns distinct content: all misses) and overlapping (the ops
// cycle through a small key set: hit-heavy). BM_ExploreN8 is the n=8
// mobile-model exploration whose cost is dominated by state/view interning.
// Each arena interns under one mutex, so N writers into one arena
// serialize; the table still runs 8 writers against one arena to show that
// racing interns agree (unique states, hits, misses) and how often they
// waited on the lock. The rows keep their "workers:1" names from the
// sharded arenas' writer sweep, so the baseline comparison in ci.sh still
// matches them.
#include <benchmark/benchmark.h>

#include "bench_flags.hpp"

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "analysis/reports.hpp"
#include "core/state.hpp"
#include "engine/explore.hpp"
#include "runtime/stats.hpp"
#include "util/hash.hpp"
#include "util/table.hpp"

namespace lacon {
namespace {

constexpr std::size_t kOps = 1 << 14;       // interns per iteration
constexpr std::uint64_t kDistinct = 256;    // overlapping-regime key count

// Deterministic synthetic state; locals are arbitrary ids (StateArena never
// dereferences them). n=8 lanes + a short env mirror the exploration mix.
GlobalState make_state(std::uint64_t i) {
  GlobalState s;
  for (std::size_t e = 0; e < 3; ++e) {
    s.env.push_back(static_cast<std::int64_t>(mix64(i * 31 + e)));
  }
  for (std::size_t p = 0; p < 8; ++p) {
    s.locals.push_back(static_cast<ViewId>(mix64(i + p) & 0xffffff));
    s.decisions.push_back(kUndecided);
  }
  return s;
}

// Runs write(i) for every i in [0, kOps) on `writers` threads that claim
// contiguous chunks of the index space, four per writer, from a shared
// counter (the schedule these rows were first recorded with). The calling
// thread is writer 0, so one writer spawns no thread at all.
template <typename Write>
void run_writers(unsigned writers, const Write& write) {
  const std::size_t chunks = 4 * std::size_t{writers};
  std::atomic<std::size_t> next{0};
  const auto work = [&] {
    for (std::size_t c = next++; c < chunks; c = next++) {
      for (std::size_t i = kOps * c / chunks; i < kOps * (c + 1) / chunks;
           ++i) {
        write(i);
      }
    }
  };
  std::vector<std::thread> threads;
  for (unsigned w = 1; w < writers; ++w) threads.emplace_back(work);
  work();
  for (std::thread& t : threads) t.join();
}

// make_state(0), ..., make_state(count - 1). The intern rows build their
// operands once, outside the timed loop, so that they time interning alone.
std::vector<GlobalState> make_states(std::uint64_t count) {
  std::vector<GlobalState> states;
  states.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) states.push_back(make_state(i));
  return states;
}

void BM_InternDisjoint(benchmark::State& state) {
  const std::vector<GlobalState> ops = make_states(kOps);
  for (auto _ : state) {
    StateArena arena;
    run_writers(1, [&](std::size_t i) {
      benchmark::DoNotOptimize(arena.intern(ops[i]));
    });
    benchmark::DoNotOptimize(arena.size());
  }
  state.counters["interns_per_iter"] = static_cast<double>(kOps);
}

void BM_InternOverlapping(benchmark::State& state) {
  const std::vector<GlobalState> ops = make_states(kDistinct);
  for (auto _ : state) {
    StateArena arena;
    run_writers(1, [&](std::size_t i) {
      benchmark::DoNotOptimize(arena.intern(ops[i % kDistinct]));
    });
    benchmark::DoNotOptimize(arena.size());
  }
  state.counters["interns_per_iter"] = static_cast<double>(kOps);
  state.counters["distinct"] = static_cast<double>(kDistinct);
}

// The n=8 exploration interning path: one mobile-model layer below Con_0
// interns ~18k global states and ~150k views through the arenas.
void BM_ExploreN8(benchmark::State& state) {
  auto rule = never_decide();
  for (auto _ : state) {
    auto model = make_model(ModelKind::kMobile, 8, 1, *rule);
    benchmark::DoNotOptimize(reachable_states(*model, 1).size());
  }
}

// One-vs-8-writer table with the lock-contention counter, so a run shows
// at a glance how often interns actually waited on the arena's lock.
void print_table() {
  auto& stats = runtime::Stats::global();
  Table table({"regime", "writers", "unique states", "hits", "misses",
               "lock waits"});
  for (const unsigned w : {1u, 8u}) {
    for (const bool overlapping : {false, true}) {
      stats.counter("arena.state_hits").reset();
      stats.counter("arena.state_misses").reset();
      stats.counter("arena.state_shard_waits").reset();
      StateArena arena;
      run_writers(w, [&](std::size_t i) {
        const auto key = static_cast<std::uint64_t>(i);
        arena.intern(make_state(overlapping ? key % kDistinct : key));
      });
      table.add_row({overlapping ? "overlapping" : "disjoint",
                     std::to_string(w), std::to_string(arena.size()),
                     std::to_string(stats.counter("arena.state_hits").value()),
                     std::to_string(
                         stats.counter("arena.state_misses").value()),
                     std::to_string(
                         stats.counter("arena.state_shard_waits").value())});
    }
  }
  std::fputs(
      table.to_string("T10: arena intern contention (one lock per arena)")
          .c_str(),
      stdout);
}

}  // namespace
}  // namespace lacon

int main(int argc, char** argv) {
  lacon::benchflags::init(&argc, argv);
  lacon::print_table();
  benchmark::RegisterBenchmark("BM_InternDisjoint/workers:1/1",
                               lacon::BM_InternDisjoint)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("BM_InternOverlapping/workers:1/1",
                               lacon::BM_InternOverlapping)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("BM_ExploreN8/workers:1/1", lacon::BM_ExploreN8)
      ->Unit(benchmark::kMillisecond);
  lacon::benchflags::add_json_context();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  lacon::benchflags::finish();
  return 0;
}
