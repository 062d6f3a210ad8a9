// T10 — Concurrent sharded hash-consing arenas (core/state.hpp).
//
// Intern contention microbench: every worker hammers StateArena::intern
// under two key-set regimes — disjoint (each op interns distinct content:
// all misses, no index sharing) and overlapping (all workers intern the
// same small key set: hit-heavy, racing equal-content interns that must
// agree on one id). The worker sweep is fixed at 1/2/4/8 regardless of the
// host's core count so bench names stay stable for the baseline comparison
// in ci.sh; on a single-core host the >1-worker rows measure contention
// structure (shard waits), not parallel speedup. BM_ExploreN8 is the
// acceptance workload: the n=8 mobile-model exploration whose cost is
// dominated by state/view interning.
#include <benchmark/benchmark.h>

#include "bench_flags.hpp"

#include <cstdint>
#include <cstdio>
#include <string>

#include "analysis/reports.hpp"
#include "core/state.hpp"
#include "engine/explore.hpp"
#include "runtime/parallel.hpp"
#include "runtime/stats.hpp"
#include "runtime/thread_pool.hpp"
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

void BM_InternDisjoint(benchmark::State& state) {
  runtime::WorkerCountOverride workers(
      static_cast<unsigned>(state.range(0)));
  for (auto _ : state) {
    StateArena arena;
    runtime::parallel_for(kOps, [&](std::size_t i) {
      benchmark::DoNotOptimize(
          arena.intern(make_state(static_cast<std::uint64_t>(i))));
    });
    benchmark::DoNotOptimize(arena.size());
  }
  state.counters["interns_per_iter"] = static_cast<double>(kOps);
}

void BM_InternOverlapping(benchmark::State& state) {
  runtime::WorkerCountOverride workers(
      static_cast<unsigned>(state.range(0)));
  for (auto _ : state) {
    StateArena arena;
    runtime::parallel_for(kOps, [&](std::size_t i) {
      benchmark::DoNotOptimize(arena.intern(
          make_state(static_cast<std::uint64_t>(i) % kDistinct)));
    });
    benchmark::DoNotOptimize(arena.size());
  }
  state.counters["interns_per_iter"] = static_cast<double>(kOps);
  state.counters["distinct"] = static_cast<double>(kDistinct);
}

// The n=8 exploration interning path: one mobile-model layer below Con_0
// interns ~18k global states and ~150k views through the sharded arenas.
void BM_ExploreN8(benchmark::State& state) {
  runtime::WorkerCountOverride workers(
      static_cast<unsigned>(state.range(0)));
  auto rule = never_decide();
  for (auto _ : state) {
    auto model = make_model(ModelKind::kMobile, 8, 1, *rule);
    benchmark::DoNotOptimize(reachable_states(*model, 1).size());
  }
}

// Serial-vs-8-worker audit table with the shard-contention counters, so a
// run shows at a glance how often interns actually waited on a shard.
void print_table() {
  auto& stats = runtime::Stats::global();
  Table table({"regime", "workers", "unique states", "hits", "misses",
               "shard waits"});
  for (const unsigned w : {1u, 8u}) {
    for (const bool overlapping : {false, true}) {
      stats.counter("arena.state_hits").reset();
      stats.counter("arena.state_misses").reset();
      stats.counter("arena.state_shard_waits").reset();
      runtime::WorkerCountOverride workers(w);
      StateArena arena;
      runtime::parallel_for(kOps, [&](std::size_t i) {
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
      table
          .to_string("T10: sharded arena intern contention (" +
                     std::to_string(kArenaShards) + " shards)")
          .c_str(),
      stdout);
}

void register_worker_sweep(const char* name,
                           void (*fn)(benchmark::State&)) {
  for (const unsigned w : {1u, 2u, 4u, 8u}) {
    benchmark::RegisterBenchmark(
        (std::string(name) + "/workers:" + std::to_string(w)).c_str(), fn)
        ->Arg(static_cast<int>(w))
        ->Unit(benchmark::kMillisecond);
  }
}

}  // namespace
}  // namespace lacon

int main(int argc, char** argv) {
  lacon::benchflags::init(&argc, argv);
  lacon::print_table();
  lacon::register_worker_sweep("BM_InternDisjoint", lacon::BM_InternDisjoint);
  lacon::register_worker_sweep("BM_InternOverlapping",
                               lacon::BM_InternOverlapping);
  lacon::register_worker_sweep("BM_ExploreN8", lacon::BM_ExploreN8);
  lacon::benchflags::add_json_context();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  lacon::benchflags::finish();
  return 0;
}
