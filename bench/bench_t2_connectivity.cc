// T2 — Connectivity of Con_0 and of layers (Lemmas 3.6, 5.1(iii), 5.3(iii)).
// For every model and n: is Con_0 similarity connected (must be yes), its
// s-diameter (= n, by the Lemma 3.6 chain), is Con_0 valence connected, is
// a bivalent initial state found, and are the layers of the initial states
// valence connected. Timings: connectivity checks.
#include <benchmark/benchmark.h>

#include "bench_flags.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "analysis/reports.hpp"
#include "relation/similarity.hpp"
#include "relation/similarity_index.hpp"
#include "runtime/stats.hpp"
#include "util/table.hpp"

namespace lacon {
namespace {

bool graphs_identical(const Graph& a, const Graph& b) {
  if (a.size() != b.size() || a.edge_count() != b.edge_count()) return false;
  for (std::size_t v = 0; v < a.size(); ++v) {
    const auto na = a.neighbors(v);
    const auto nb = b.neighbors(v);
    if (!std::equal(na.begin(), na.end(), nb.begin(), nb.end())) return false;
  }
  return true;
}

// Indexed-vs-naive ablation over Con_0: for each model and n, the number of
// pairs each strategy evaluates (relation.pairs_evaluated deltas) and a
// byte-identity check of the two graphs. Each row's wall times go to
// stderr, so the printed table depends only on the answers. The mobile rows
// grow n well past what the naive sweep's timings invite — that is the
// point.
void print_index_ablation() {
  Table table({"model", "n", "|X|", "naive pairs", "indexed pairs",
               "pairs ratio", "identical"});
  auto& pairs = runtime::Stats::global().counter("relation.pairs_evaluated");
  auto rule = never_decide();
  struct Cfg {
    ModelKind kind;
    int n;
  };
  const Cfg cfgs[] = {{ModelKind::kMobile, 5},    {ModelKind::kMobile, 6},
                      {ModelKind::kMobile, 7},    {ModelKind::kMobile, 8},
                      {ModelKind::kSharedMem, 5}, {ModelKind::kMsgPass, 3},
                      {ModelKind::kSync, 5}};
  for (const Cfg& cfg : cfgs) {
    const int t = cfg.kind == ModelKind::kSync ? cfg.n - 2 : 1;
    auto model = make_model(cfg.kind, cfg.n, t, *rule);
    const auto& con0 = model->initial_states();
    using Clock = std::chrono::steady_clock;

    const std::uint64_t pairs0 = pairs.value();
    const auto t0 = Clock::now();
    const Graph naive = similarity_graph_naive(*model, con0);
    const auto t1 = Clock::now();
    const std::uint64_t naive_pairs = pairs.value() - pairs0;
    const Graph indexed = similarity_graph_indexed(*model, con0);
    const auto t2 = Clock::now();
    const std::uint64_t indexed_pairs = pairs.value() - pairs0 - naive_pairs;

    const auto ms = [](auto d) {
      return std::chrono::duration<double, std::milli>(d).count();
    };
    char ratio[32];
    std::snprintf(ratio, sizeof ratio, "%.1fx",
                  indexed_pairs == 0
                      ? 0.0
                      : static_cast<double>(naive_pairs) /
                            static_cast<double>(indexed_pairs));
    std::fprintf(stderr, "T2b %s n=%d: naive %.2f ms, indexed %.2f ms\n",
                 model_kind_name(cfg.kind).c_str(), cfg.n, ms(t1 - t0),
                 ms(t2 - t1));
    table.add_row({model_kind_name(cfg.kind),
                   cell(static_cast<long long>(cfg.n)),
                   cell(static_cast<long long>(con0.size())),
                   cell(static_cast<long long>(naive_pairs)),
                   cell(static_cast<long long>(indexed_pairs)), ratio,
                   cell(graphs_identical(naive, indexed))});
  }
  std::fputs(table
                 .to_string("T2b: similarity-index ablation on Con_0 "
                            "(naive sweep vs erase-one fingerprint index)")
                 .c_str(),
             stdout);
}

void print_table() {
  Table table({"model", "n", "Con0 ~s conn", "s-diam", "Con0 ~v conn",
               "bivalent init", "layer ~v conn"});
  for (ModelKind kind : {ModelKind::kMobile, ModelKind::kSharedMem,
                         ModelKind::kMsgPass, ModelKind::kSync}) {
    const int max_n = (kind == ModelKind::kMsgPass) ? 3 : 4;
    for (int n = 3; n <= max_n; ++n) {
      const int t = (kind == ModelKind::kSync) ? n - 2 : 1;
      auto rule = min_after_round(kind == ModelKind::kSync ? t + 1 : 2);
      auto model = make_model(kind, n, t, *rule);
      const auto& con0 = model->initial_states();
      const bool sim = similarity_connected(*model, con0);
      const auto diam = s_diameter(*model, con0);
      ValenceEngine engine(*model, t + 2, default_exactness(kind));
      const bool val = engine.valence_connected(con0);
      const bool biv = engine.find_bivalent(con0).has_value();
      // Layer connectivity at the first bivalent initial state (where it
      // matters for the Theorem 4.2 construction).
      bool layer_val = true;
      if (const auto start = engine.find_bivalent(con0)) {
        layer_val = engine.valence_connected(model->layer(*start));
      }
      table.add_row({model_kind_name(kind), cell(static_cast<long long>(n)),
                     cell(sim),
                     diam ? cell(static_cast<long long>(*diam)) : "inf",
                     cell(val), cell(biv), cell(layer_val)});
    }
  }
  std::fputs(
      table.to_string("T2: connectivity of Con_0 and of layers").c_str(),
      stdout);
}

void BM_Con0SimilarityConnectivity(benchmark::State& state, ModelKind kind) {
  const int n = static_cast<int>(state.range(0));
  auto rule = never_decide();
  auto model = make_model(kind, n, 1, *rule);
  const auto& con0 = model->initial_states();
  for (auto _ : state) {
    benchmark::DoNotOptimize(similarity_connected(*model, con0));
  }
}

void BM_Con0ValenceConnectivity(benchmark::State& state, ModelKind kind) {
  const int n = static_cast<int>(state.range(0));
  auto rule = min_after_round(2);
  for (auto _ : state) {
    auto model = make_model(kind, n, 1, *rule);
    ValenceEngine engine(*model, 3, default_exactness(kind));
    benchmark::DoNotOptimize(
        engine.valence_connected(model->initial_states()));
  }
}

BENCHMARK_CAPTURE(BM_Con0SimilarityConnectivity, mobile, ModelKind::kMobile)
    ->Arg(3)
    ->Arg(5);
BENCHMARK_CAPTURE(BM_Con0SimilarityConnectivity, sharedmem,
                  ModelKind::kSharedMem)
    ->Arg(3)
    ->Arg(5);
BENCHMARK_CAPTURE(BM_Con0ValenceConnectivity, mobile, ModelKind::kMobile)
    ->Arg(3);
BENCHMARK_CAPTURE(BM_Con0ValenceConnectivity, sharedmem,
                  ModelKind::kSharedMem)
    ->Arg(3);

}  // namespace
}  // namespace lacon

int main(int argc, char** argv) {
  lacon::benchflags::init(&argc, argv);
  lacon::print_table();
  lacon::print_index_ablation();
  lacon::benchflags::add_json_context();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  lacon::benchflags::finish();
  return 0;
}
