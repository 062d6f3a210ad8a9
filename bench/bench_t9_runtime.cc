// T9 — The analysis hot paths, each run to completion on the calling thread.
//
// Wall clock for frontier expansion, the ~s pair sweep and per-initial-state
// valence classification, with each workload's complete analysis output
// (per-level state counts, connectivity verdict, s-diameter, valence tags)
// printed next to its timings. The benchmark rows keep the "/workers:1/1"
// suffix of the worker sweep they replaced, so the committed baseline
// (bench/baseline/BENCH_t9_runtime.json) still gates them in ci.sh.
#include <benchmark/benchmark.h>

#include "bench_flags.hpp"

#include <chrono>
#include <cstdio>
#include <string>

#include "analysis/reports.hpp"
#include "engine/explore.hpp"
#include "engine/valence.hpp"
#include "relation/similarity.hpp"
#include "util/table.hpp"

namespace lacon {
namespace {

// The table workload: explore, sweep ~s over the deepest level, classify
// Con_0. Returns the full analysis output as a printable string.
std::string run_workload(ModelKind kind, int n, int depth,
                         std::string* timings) {
  const int t = 1;
  auto rule = min_after_round(2);
  auto model = make_model(kind, n, t, *rule);

  const auto t0 = std::chrono::steady_clock::now();
  const auto levels = reachable_by_depth(*model, depth);
  const auto t1 = std::chrono::steady_clock::now();
  const auto& deepest = levels.back();
  const bool conn = similarity_connected(*model, deepest);
  const auto diam = s_diameter(*model, deepest);
  const auto t2 = std::chrono::steady_clock::now();
  ValenceEngine engine(*model, depth + 1, default_exactness(kind));
  const auto infos = engine.classify_all(model->initial_states());
  const auto t3 = std::chrono::steady_clock::now();

  const auto ms = [](auto a, auto b) {
    return cell(std::chrono::duration<double, std::milli>(b - a).count(), 1);
  };
  *timings = ms(t0, t1) + " / " + ms(t1, t2) + " / " + ms(t2, t3);

  std::string out = "levels=";
  for (const auto& level : levels) {
    out += std::to_string(level.size()) + ",";
  }
  out += " deepest_conn=" + std::string(conn ? "y" : "n");
  out += " s_diam=" + (diam ? std::to_string(*diam) : std::string("inf"));
  out += " tags=";
  for (const ValenceInfo& v : infos) {
    out += v.bivalent() ? 'b' : (v.value() == 0 ? '0' : '1');
    out += v.exact ? '!' : '?';
  }
  return out;
}

void print_table() {
  Table table({"workload", "ms (explore/sweep/valence)", "analysis output"});
  struct Row {
    ModelKind kind;
    int n;
    int depth;
  };
  for (const Row& row : {Row{ModelKind::kMobile, 4, 2},
                         Row{ModelKind::kSharedMem, 3, 2},
                         Row{ModelKind::kSync, 4, 2}}) {
    std::string timings;
    const std::string output =
        run_workload(row.kind, row.n, row.depth, &timings);
    table.add_row({model_kind_name(row.kind) + " n=" + std::to_string(row.n),
                   timings, output});
  }
  std::fputs(table.to_string("T9: analysis hot paths").c_str(), stdout);
}

// The ~s pair sweep over a deep mobile-model level.
void BM_SimilaritySweep(benchmark::State& state) {
  auto rule = never_decide();
  auto model = make_model(ModelKind::kMobile, 4, 1, *rule);
  const auto X = reachable_states(*model, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(similarity_graph(*model, X).edge_count());
  }
  state.counters["states"] = static_cast<double>(X.size());
}

void BM_Explore(benchmark::State& state) {
  auto rule = never_decide();
  for (auto _ : state) {
    auto model = make_model(ModelKind::kMobile, 4, 1, *rule);
    benchmark::DoNotOptimize(reachable_states(*model, 2).size());
  }
}

void BM_ValenceClassify(benchmark::State& state) {
  auto rule = min_after_round(2);
  for (auto _ : state) {
    auto model = make_model(ModelKind::kSharedMem, 3, 1, *rule);
    ValenceEngine engine(*model, 3,
                         default_exactness(ModelKind::kSharedMem));
    benchmark::DoNotOptimize(
        engine.classify_all(model->initial_states()).size());
  }
}

void register_row(const char* name, void (*fn)(benchmark::State&)) {
  benchmark::RegisterBenchmark((std::string(name) + "/workers:1/1").c_str(),
                               fn)
      ->Unit(benchmark::kMillisecond);
}

}  // namespace
}  // namespace lacon

int main(int argc, char** argv) {
  lacon::benchflags::init(&argc, argv);
  lacon::print_table();
  lacon::register_row("BM_SimilaritySweep", lacon::BM_SimilaritySweep);
  lacon::register_row("BM_Explore", lacon::BM_Explore);
  lacon::register_row("BM_ValenceClassify", lacon::BM_ValenceClassify);
  lacon::benchflags::add_json_context();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  lacon::benchflags::finish();
  return 0;
}
