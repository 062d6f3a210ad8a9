// lacon_check — one-shot mechanized verification report.
//
// Usage: lacon_check [n] [t] [depth] [horizon] [--dot]
//
// Runs the full lemma suite on all four of the paper's models (plus the
// trilemma verdicts and the topology catalog), prints a report table, and
// exits non-zero if any check fails — suitable for CI. With --dot, also
// prints the DOT rendering of Con_0's similarity graph for the mobile
// model (pipe into `dot -Tsvg`).
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "analysis/dot.hpp"
#include "analysis/reports.hpp"
#include "topology/solvability.hpp"
#include "topology/tasks.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace lacon;
  const int n = argc > 1 ? std::atoi(argv[1]) : 3;
  const int t = argc > 2 ? std::atoi(argv[2]) : 1;
  const int depth = argc > 3 ? std::atoi(argv[3]) : 2;
  const int horizon = argc > 4 ? std::atoi(argv[4]) : 3;
  const bool dot = argc > 5 && std::strcmp(argv[5], "--dot") == 0;

  bool all_ok = true;
  Table table({"model", "check", "ok", "checked", "detail"});
  for (ModelKind kind : {ModelKind::kMobile, ModelKind::kSharedMem,
                         ModelKind::kMsgPass, ModelKind::kSync}) {
    const bool sync = kind == ModelKind::kSync;
    auto rule = min_after_round(sync ? t + 1 : 2);
    for (const NamedCheck& check : run_lemma_suite(
             kind, n, t, depth, sync ? t + 2 : horizon, *rule)) {
      all_ok = all_ok && check.result.ok;
      // A passing check that examined nothing confirms nothing; say so.
      const std::string ok = check.result.ok && check.result.checked == 0
                                 ? "vacuous"
                                 : cell(check.result.ok);
      table.add_row({model_kind_name(kind), check.name, ok,
                     cell(static_cast<long long>(check.result.checked)),
                     check.result.detail});
    }
    // Trilemma: in the 1-resilient models the rule must violate something;
    // the synchronous t+1-round protocol must pass.
    auto model = make_model(kind, n, t, *rule);
    const TrilemmaVerdict v =
        consensus_trilemma(*model, depth + 1, sync ? t + 2 : horizon);
    const bool expected = sync ? v.violated == TrilemmaVerdict::Violated::kNone
                               : v.violated != TrilemmaVerdict::Violated::kNone;
    all_ok = all_ok && expected;
    table.add_row({model_kind_name(kind), "Trilemma (Theorem 4.2 / Cor 6.3)",
                   cell(expected), "1", v.witness});
  }
  std::fputs(table.to_string("lacon_check: mechanized lemma suite").c_str(),
             stdout);

  // Topology side.
  const bool consensus_rejected =
      problem_k_thick_connected(consensus_task(n), 1).verdict ==
      ThickVerdict::kNotConnected;
  const bool trivial_accepted =
      problem_k_thick_connected(trivial_task(n), 1).verdict ==
      ThickVerdict::kConnected;
  all_ok = all_ok && consensus_rejected && trivial_accepted;
  std::printf("\ntopology: consensus not 1-thick connected: %s; trivial task "
              "1-thick connected: %s\n",
              consensus_rejected ? "yes" : "NO",
              trivial_accepted ? "yes" : "NO");

  if (dot) {
    auto rule = min_after_round(2);
    {
      auto model = make_model(ModelKind::kMobile, n, 1, *rule);
      ValenceEngine engine(*model, horizon);
      std::fputs("\n", stdout);
      std::fputs(
          similarity_graph_dot(*model, model->initial_states(), &engine)
              .c_str(),
          stdout);
    }
  }

  std::printf("\noverall: %s\n", all_ok ? "ALL CHECKS PASS" : "FAILURES");
  return all_ok ? 0 : 1;
}
