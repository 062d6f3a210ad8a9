// T12 — The flat-encoding kernels end to end (util/simd.hpp, DESIGN.md §13).
//
// One workload over every kernel the analysis calls inline: explore the
// n=8 mobile model one layer below Con_0 (content hash and equality in the
// interning path), build the indexed similarity graph of the frontier
// (fingerprint rows + agree_modulo candidate confirmation), check its
// connectivity and fold the s-diameters of the first initial layers (bitmap
// BFS over frontier_advance), all on the calling thread. The row keeps its
// "/scalar" suffix so the committed baseline row still gates it (ci.sh,
// compare_baseline.py); the correctness of the kernels is the tests' job
// (tests/simd_test.cc), not this harness's.
#include <benchmark/benchmark.h>

#include "bench_flags.hpp"

#include <algorithm>
#include <cstddef>

#include "analysis/reports.hpp"
#include "engine/explore.hpp"
#include "relation/graph.hpp"
#include "relation/similarity_index.hpp"

namespace lacon {
namespace {

void BM_ExploreSimilarityDiameterN8(benchmark::State& state) {
  auto rule = never_decide();
  for (auto _ : state) {
    auto model = make_model(ModelKind::kMobile, 8, 1, *rule);
    const auto levels = reachable_by_depth(*model, 1);
    const Graph g = similarity_graph_indexed(*model, levels.back());
    benchmark::DoNotOptimize(g.connected());
    std::size_t worst = 0;
    const auto& initial = model->initial_states();
    for (std::size_t i = 0; i < 16 && i < initial.size(); ++i) {
      const Graph layer_graph =
          similarity_graph_indexed(*model, model->layer(initial[i]));
      if (const auto d = layer_graph.diameter()) worst = std::max(worst, *d);
    }
    benchmark::DoNotOptimize(worst);
  }
}

}  // namespace
}  // namespace lacon

int main(int argc, char** argv) {
  lacon::benchflags::init(&argc, argv);
  benchmark::RegisterBenchmark("BM_ExploreSimilarityDiameterN8/scalar",
                               lacon::BM_ExploreSimilarityDiameterN8)
      ->Unit(benchmark::kMillisecond);
  lacon::benchflags::add_json_context();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  lacon::benchflags::finish();
  return 0;
}
