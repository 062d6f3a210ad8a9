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
//   4. demonstrates the observability layer: the whole analysis runs under
//      LACON_TRACE=counters-equivalent tracing, and the program finishes by
//      writing quickstart_trace.json (open it at https://ui.perfetto.dev)
//      and printing where the time went, span by span.
#include <cstdio>

#include "analysis/reports.hpp"
#include "engine/bivalence.hpp"
#include "engine/explore.hpp"
#include "models/mobile/mobile_model.hpp"
#include "relation/similarity.hpp"
#include "runtime/stats.hpp"
#include "runtime/trace.hpp"

int main() {
  using namespace lacon;
  const int n = 3;
  const int horizon = 3;

  // Record spans for everything below. Equivalent to running any lacon
  // binary with LACON_TRACE=spans in the environment; the explicit call
  // just makes the quickstart self-contained. Tracing never changes
  // results — with the default LACON_TRACE=off a span site costs one
  // relaxed atomic load.
  trace::set_mode(trace::Mode::kSpans);

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
  // Every span recorded above also fed a log2 latency histogram
  // "span.<category>.<name>" in the stats registry; print the per-phase
  // totals, then export the full event timeline as a Chrome trace. In the
  // Perfetto UI each thread is a lane, and engine phases appear as nested
  // explore.expand / similarity.confirm / valence.classify spans.
  for (const runtime::HistogramSample& h :
       runtime::Stats::global().histogram_snapshot()) {
    if (h.count == 0) continue;
    std::printf("%-28s %6llu spans, %8.3f ms total\n", h.name.c_str(),
                static_cast<unsigned long long>(h.count),
                static_cast<double>(h.sum) * 1e-6);
  }
  const char* trace_path = "quickstart_trace.json";
  if (trace::write_chrome_trace(trace_path)) {
    std::printf("%zu span events -> %s (drag into https://ui.perfetto.dev)\n",
                trace::spans_recorded(), trace_path);
  }
  return 0;
}
