// Quickstart: the paper's layered analysis on the mobile-failure model.
//
// Builds M^mf with n = 3 processes running the full-information protocol
// with the FloodSet-style decision rule "decide the minimum known input
// after 2 rounds", then
//   1. verifies Lemma 3.6: Con_0 is similarity connected, valence connected,
//      and contains a bivalent initial state;
//   2. runs the Theorem 4.2 construction: extends an all-bivalent run layer
//      by layer — the executable form of "consensus is impossible with one
//      mobile failure" (Corollary 5.2);
//   3. prints the trilemma verdict for a catalog of candidate protocols:
//      each violates one of decision / agreement / validity;
//   4. prints where the time went: every engine phase above recorded its
//      duration into a named timer of the stats registry.
#include <cstdio>

#include "analysis/reports.hpp"
#include "engine/bivalence.hpp"
#include "engine/explore.hpp"
#include "models/mobile/mobile_model.hpp"
#include "relation/similarity.hpp"
#include "runtime/stats.hpp"

int main() {
  using namespace lacon;
  const int n = 3;
  const int horizon = 3;

  auto rule = min_after_round(2);
  MobileModel model(n, *rule);

  // --- Lemma 3.6 -----------------------------------------------------------
  const auto& con0 = model.initial_states();
  std::printf("Con_0: %zu initial states\n", con0.size());
  const auto levels = reachable_by_depth(model, 2);
  std::size_t reachable = 0;
  for (const auto& level : levels) reachable += level.size();
  std::printf("  reachable to depth 2: %zu states\n", reachable);
  std::printf("  similarity connected: %s\n",
              similarity_connected(model, con0) ? "yes" : "no");
  ValenceEngine engine(model, horizon);
  std::printf("  valence connected:    %s\n",
              engine.valence_connected(con0) ? "yes" : "no");
  const auto bivalent = engine.find_bivalent(con0);
  std::printf("  bivalent initial:     %s\n",
              bivalent ? "found" : "none");

  // --- Theorem 4.2 construction -------------------------------------------
  const int depth = 6;
  const BivalentRunResult run = extend_bivalent_run(engine, depth);
  std::printf("bivalent run: extended %zu layers (%s)\n", run.run.size() - 1,
              run.complete ? "complete" : run.stuck_reason.c_str());

  // --- Trilemma for candidate protocols ------------------------------------
  struct Candidate {
    const char* label;
    std::unique_ptr<DecisionRule> rule;
  };
  Candidate candidates[] = {
      {"min-after-round-2", min_after_round(2)},
      {"own-input-after-round-2", own_input_after_round(2)},
      {"unanimity-then-min-2", unanimity_then_min(2)},
  };
  for (auto& c : candidates) {
    MobileModel m(n, *c.rule);
    const TrilemmaVerdict v = consensus_trilemma(m, 4, horizon);
    const char* what = "none";
    switch (v.violated) {
      case TrilemmaVerdict::Violated::kAgreement: what = "agreement"; break;
      case TrilemmaVerdict::Violated::kValidity: what = "validity"; break;
      case TrilemmaVerdict::Violated::kDecision: what = "decision"; break;
      case TrilemmaVerdict::Violated::kNone: what = "none"; break;
    }
    std::printf("%-26s violates %-9s : %s\n", c.label, what,
                v.witness.c_str());
  }

  // --- Where did the time go? ----------------------------------------------
  // Each phase's timer also keeps a log2 histogram of its durations;
  // runtime::metrics_snapshot_json() renders the bucket vectors.
  for (const runtime::StatSample& s : runtime::Stats::global().snapshot()) {
    if (!s.is_timer || s.count == 0) continue;
    std::printf("%-36s %6llu calls, %8.3f ms total\n", s.name.c_str(),
                static_cast<unsigned long long>(s.count),
                static_cast<double>(s.value) * 1e-6);
  }
  return 0;
}
