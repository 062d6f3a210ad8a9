// T1 — Layer anatomy. For every model and n, the number of environment
// actions of the layering, the number of *distinct* successor states
// |S(x)| at an initial state, and the dedup ratio. Every model interns one
// successor per action, so `actions` is the number of state interns (arena
// hits plus misses) that computing the layer makes. Expected values (from
// the layering definitions):
//   S1:    n(n+1) actions, n^2-n+1 distinct states
//   S^rw:  n(n+2) actions
//   S^per: n! + n! + (n-1)n!/2 actions
//   S^t:   1 + n^2 actions while failures remain
// plus google-benchmark timings of layer enumeration.
#include <benchmark/benchmark.h>

#include "bench_flags.hpp"

#include <cstdio>

#include "analysis/reports.hpp"
#include "models/msgpass/msgpass_model.hpp"
#include "runtime/stats.hpp"
#include "util/table.hpp"

namespace lacon {
namespace {

// State interns (hits plus misses) so far, across every arena.
long long state_interns() {
  auto& stats = runtime::Stats::global();
  return static_cast<long long>(stats.counter("arena.state_hits").value() +
                                stats.counter("arena.state_misses").value());
}

void print_table() {
  Table table({"model", "n", "actions", "|S(x)| distinct", "dedup ratio"});
  auto rule = never_decide();
  for (ModelKind kind : {ModelKind::kMobile, ModelKind::kSharedMem,
                         ModelKind::kMsgPass, ModelKind::kSync}) {
    const int max_n = (kind == ModelKind::kMsgPass) ? 5 : 6;
    for (int n = (kind == ModelKind::kSync ? 3 : 2); n <= max_n; ++n) {
      auto model = make_model(kind, n, 1, *rule);
      const StateId x0 = model->initial_states().front();
      const long long before = state_interns();
      const long long distinct =
          static_cast<long long>(model->layer(x0).size());
      const long long actions = state_interns() - before;
      table.add_row({model_kind_name(kind), cell(static_cast<long long>(n)),
                     cell(actions), cell(distinct),
                     cell(static_cast<double>(actions) /
                              static_cast<double>(distinct),
                          2)});
    }
  }
  std::fputs(table.to_string("T1: layer anatomy").c_str(), stdout);
}

void BM_LayerEnumeration(benchmark::State& state, ModelKind kind) {
  const int n = static_cast<int>(state.range(0));
  auto rule = never_decide();
  for (auto _ : state) {
    // Rebuild the model each iteration so the layer cache does not trivialize
    // the measurement.
    auto model = make_model(kind, n, 1, *rule);
    benchmark::DoNotOptimize(
        model->layer(model->initial_states().front()).size());
  }
}

BENCHMARK_CAPTURE(BM_LayerEnumeration, mobile, ModelKind::kMobile)
    ->Arg(3)
    ->Arg(5);
BENCHMARK_CAPTURE(BM_LayerEnumeration, sharedmem, ModelKind::kSharedMem)
    ->Arg(3)
    ->Arg(5);
BENCHMARK_CAPTURE(BM_LayerEnumeration, msgpass, ModelKind::kMsgPass)
    ->Arg(3)
    ->Arg(4);
BENCHMARK_CAPTURE(BM_LayerEnumeration, sync, ModelKind::kSync)->Arg(3)->Arg(5);

}  // namespace
}  // namespace lacon

int main(int argc, char** argv) {
  lacon::benchflags::init(&argc, argv);
  lacon::print_table();
  lacon::benchflags::add_json_context();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  lacon::benchflags::finish();
  return 0;
}
