// T5 — The s-diameter recurrence (Lemma 7.6 / Theorem 7.7). In the S^t
// synchronous model, measure the s-diameter of the set of states reachable
// at the end of round m and compare with the paper's bound
//   d_X^{m+1} = d_X^m d_Y^m + d_X^m + d_Y^m,  d_Y^m = 2(n-m),
// starting from d_X^0 = s-diameter(Con_0) = n. Measured must never exceed
// the bound (the bound is loose — that is expected and reported).
#include <benchmark/benchmark.h>

#include "bench_flags.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "analysis/reports.hpp"
#include <unordered_set>

#include "core/decision_rule.hpp"
#include "engine/explore.hpp"
#include "models/synchronous/sync_model.hpp"
#include "relation/similarity.hpp"
#include "relation/similarity_index.hpp"
#include "runtime/stats.hpp"
#include "topology/solvability.hpp"
#include "util/table.hpp"

namespace lacon {
namespace {

// The set of states the Theorem 7.7 recurrence actually governs: states at
// the end of round m reachable with at most r failures by the end of every
// round r <= m (the runs traversed by the Lemma 7.4 construction). The
// *full* round-m sets of R_{S^t} disconnect for m >= 2 — budget-exhausted
// states (e.g. two processes silenced from round 1 on) are similarity
// isolated — which is a sharpening of the paper's premises found by this
// mechanization; see EXPERIMENTS.md.
std::vector<std::vector<StateId>> graded_levels(SyncModel& model, int depth) {
  std::vector<std::vector<StateId>> out = {model.initial_states()};
  for (int r = 1; r <= depth; ++r) {
    std::unordered_set<StateId> next;
    for (StateId x : out.back()) {
      for (StateId y : model.layer(x)) {
        if (model.failed_at(y).size() <= r) next.insert(y);
      }
    }
    std::vector<StateId> level(next.begin(), next.end());
    std::sort(level.begin(), level.end());
    out.push_back(std::move(level));
  }
  return out;
}

void print_table() {
  Table table({"n", "t", "layering", "round m", "|states|",
               "measured s-diam", "bound d_X^m", "within bound"});
  auto rule = never_decide();
  struct Config {
    int n;
    int t;
  };
  for (const Config cfg : {Config{3, 1}, Config{4, 2}}) {
    for (SyncLayering lay :
         {SyncLayering::kOnePerRound, SyncLayering::kMultiFailure}) {
      SyncModel model(cfg.n, cfg.t, *rule, {}, lay);
      const auto levels = graded_levels(model, cfg.t);
      for (std::size_t m = 0; m < levels.size(); ++m) {
        const auto diam = s_diameter(model, levels[m]);
        const long long bound =
            diameter_bound(cfg.n, static_cast<int>(m), cfg.n);
        const long long measured = diam ? static_cast<long long>(*diam) : -1;
        table.add_row(
            {cell(static_cast<long long>(cfg.n)),
             cell(static_cast<long long>(cfg.t)),
             lay == SyncLayering::kOnePerRound ? "S^t (1/round)" : "full round",
             cell(static_cast<long long>(m)),
             cell(static_cast<long long>(levels[m].size())),
             diam ? cell(measured) : "disconnected", cell(bound),
             cell(diam && measured <= bound)});
      }
    }
  }
  std::fputs(
      table
          .to_string(
              "T5: graded s-diameter growth vs Lemma 7.6 bound (m <= t)")
          .c_str(),
      stdout);

  // The per-layer diameter premise d_Y^m <= 2(n-m). The paper derives it
  // for the one-per-round S^t layers (multi-failure layers are wider: at
  // n=4, t=2 their round-1 diameter is 8 > 6, absorbed by the slack of the
  // overall recurrence).
  Table layer_table({"n", "t", "round m", "max layer s-diam",
                     "bound 2(n-m)"});
  for (const Config cfg : {Config{3, 1}, Config{4, 2}}) {
    SyncModel model(cfg.n, cfg.t, *rule, {}, SyncLayering::kOnePerRound);
    const auto levels = graded_levels(model, cfg.t);
    for (std::size_t m = 0; m + 1 < levels.size(); ++m) {
      std::size_t worst = 0;
      for (StateId x : levels[m]) {
        const auto d = s_diameter(model, model.layer(x));
        if (d) worst = std::max(worst, *d);
      }
      layer_table.add_row({cell(static_cast<long long>(cfg.n)),
                           cell(static_cast<long long>(cfg.t)),
                           cell(static_cast<long long>(m)),
                           cell(static_cast<long long>(worst)),
                           cell(2LL * (cfg.n - static_cast<long long>(m)))});
    }
  }
  std::fputs(layer_table.to_string("T5b: layer s-diameters d_Y^m").c_str(),
             stdout);

  // Indexed-vs-naive ablation on the graded reachable levels — the largest
  // similarity graphs this bench touches. Reports the pair counts each
  // strategy feeds relation.pairs_evaluated and a byte-identity check. Each
  // row's wall times of the two graph builds go to stderr, so the printed
  // table depends only on the answers.
  Table ablation({"n", "t", "round m", "|X|", "naive pairs", "indexed pairs",
                  "pairs ratio", "identical"});
  auto& pairs = runtime::Stats::global().counter("relation.pairs_evaluated");
  for (const Config cfg : {Config{3, 1}, Config{4, 2}, Config{5, 2}}) {
    SyncModel model(cfg.n, cfg.t, *rule, {}, SyncLayering::kOnePerRound);
    const auto levels = graded_levels(model, cfg.t);
    for (std::size_t m = 0; m < levels.size(); ++m) {
      using Clock = std::chrono::steady_clock;
      const std::uint64_t pairs0 = pairs.value();
      const auto t0 = Clock::now();
      const Graph naive = similarity_graph_naive(model, levels[m]);
      const auto t1 = Clock::now();
      const std::uint64_t naive_pairs = pairs.value() - pairs0;
      const Graph indexed = similarity_graph_indexed(model, levels[m]);
      const auto t2 = Clock::now();
      const std::uint64_t indexed_pairs =
          pairs.value() - pairs0 - naive_pairs;
      const auto ms = [](auto d) {
        return std::chrono::duration<double, std::milli>(d).count();
      };
      const bool identical = [&] {
        if (naive.size() != indexed.size() ||
            naive.edge_count() != indexed.edge_count()) {
          return false;
        }
        for (std::size_t v = 0; v < naive.size(); ++v) {
          const auto nn = naive.neighbors(v);
          const auto ni = indexed.neighbors(v);
          if (!std::equal(nn.begin(), nn.end(), ni.begin(), ni.end())) {
            return false;
          }
        }
        return true;
      }();
      char ratio[32];
      std::snprintf(ratio, sizeof ratio, "%.1fx",
                    indexed_pairs == 0
                        ? 0.0
                        : static_cast<double>(naive_pairs) /
                              static_cast<double>(indexed_pairs));
      std::fprintf(stderr,
                   "T5c n=%d t=%d m=%zu: naive %.2f ms, indexed %.2f ms\n",
                   cfg.n, cfg.t, m, ms(t1 - t0), ms(t2 - t1));
      ablation.add_row({cell(static_cast<long long>(cfg.n)),
                        cell(static_cast<long long>(cfg.t)),
                        cell(static_cast<long long>(m)),
                        cell(static_cast<long long>(levels[m].size())),
                        cell(static_cast<long long>(naive_pairs)),
                        cell(static_cast<long long>(indexed_pairs)), ratio,
                        cell(identical)});
    }
  }
  std::fputs(ablation
                 .to_string("T5c: similarity-index ablation on graded "
                            "levels (naive sweep vs fingerprint index)")
                 .c_str(),
             stdout);
}

void BM_LevelDiameter(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  auto rule = never_decide();
  for (auto _ : state) {
    SyncModel model(3, 1, *rule);
    const auto levels = reachable_by_depth(model, depth);
    benchmark::DoNotOptimize(s_diameter(model, levels.back()));
  }
}
BENCHMARK(BM_LevelDiameter)->Arg(1)->Arg(2);

void BM_DiameterBoundRecurrence(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(diameter_bound(8, 6, 8));
  }
}
BENCHMARK(BM_DiameterBoundRecurrence);

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
