// flp_explorer — interactive exploration of the impossibility machinery.
//
// Usage: flp_explorer [model] [rule] [depth]
//   model: mobile | sharedmem | msgpass | sync   (default: sharedmem)
//   rule:  min2 | min3 | own1 | majority2 | unanimity | safe
//   depth: layers to explore / extend              (default: 4)
//
// For the chosen model and candidate protocol the tool reports which
// consensus requirement fails (Theorem 4.2: in the asynchronous models, at
// least one always does) and, when the protocol is safe, prints the
// constructed all-bivalent run layer by layer with the decision status of
// every process.
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "analysis/reports.hpp"
#include "engine/bivalence.hpp"

namespace {

using namespace lacon;

std::unique_ptr<DecisionRule> make_rule(const std::string& name) {
  if (name == "min2") return min_after_round(2);
  if (name == "min3") return min_after_round(3);
  if (name == "own1") return own_input_after_round(1);
  if (name == "majority2") return majority_after_round(2);
  if (name == "unanimity") return unanimity_then_min(2);
  if (name == "safe") return min_when_all_known(1);
  std::fprintf(stderr, "unknown rule '%s'\n", name.c_str());
  std::exit(1);
}

ModelKind make_kind(const std::string& name) {
  if (name == "mobile") return ModelKind::kMobile;
  if (name == "sharedmem") return ModelKind::kSharedMem;
  if (name == "msgpass") return ModelKind::kMsgPass;
  if (name == "sync") return ModelKind::kSync;
  std::fprintf(stderr, "unknown model '%s'\n", name.c_str());
  std::exit(1);
}

void describe_state(LayeredModel& model, StateId x, int layer_index) {
  std::printf("  layer %d: state %u  decisions [", layer_index, x);
  const StateRef s = model.state(x);
  for (ProcessId i = 0; i < model.n(); ++i) {
    const Value d = s.decisions[static_cast<std::size_t>(i)];
    std::printf("%s%s", i ? " " : "", d == kUndecided ? "-" : std::to_string(d).c_str());
  }
  std::printf("]  failed %s\n", model.failed_at(x).to_string().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const std::string model_name = argc > 1 ? argv[1] : "sharedmem";
  const std::string rule_name = argc > 2 ? argv[2] : "min2";
  const int depth = argc > 3 ? std::atoi(argv[3]) : 4;

  const ModelKind kind = make_kind(model_name);
  const auto rule = make_rule(rule_name);
  const int n = 3;
  const int t = 1;

  std::printf("model %s, protocol %s, n=%d\n\n", model_kind_name(kind).c_str(),
              rule->name().c_str(), n);

  auto model = make_model(kind, n, t, *rule);
  const TrilemmaVerdict verdict = consensus_trilemma(*model, depth, depth);
  const char* what = "none (all requirements hold to the explored depth)";
  switch (verdict.violated) {
    case TrilemmaVerdict::Violated::kAgreement: what = "AGREEMENT"; break;
    case TrilemmaVerdict::Violated::kValidity: what = "VALIDITY"; break;
    case TrilemmaVerdict::Violated::kDecision: what = "DECISION"; break;
    case TrilemmaVerdict::Violated::kNone: break;
  }
  std::printf("violated requirement: %s\n  witness: %s\n\n", what,
              verdict.witness.c_str());

  // When the protocol is safe, show the bivalent run explicitly.
  auto model2 = make_model(kind, n, t, *rule);
  ValenceEngine engine(*model2, depth, default_exactness(kind));
  const BivalentRunResult run = extend_bivalent_run(engine, depth);
  if (!run.run.empty()) {
    std::printf("all-bivalent run (%s):\n",
                run.complete ? "complete" : run.stuck_reason.c_str());
    for (std::size_t i = 0; i < run.run.size(); ++i) {
      describe_state(*model2, run.run[i], static_cast<int>(i));
    }
  } else {
    std::printf("no bivalent initial state: %s\n", run.stuck_reason.c_str());
  }

  // Arena accounting for the run-construction model. approx_bytes is a
  // content-derived estimate (per-state/per-view formulas, DESIGN.md §9) —
  // deliberately NOT allocator or pool occupancy, so it is identical however
  // interns interleave.
  std::printf("\ninterned: %zu states, approx_bytes %zu "
              "(content-derived, scheduling-independent)\n",
              model2->num_states(), model2->memory_footprint());
  return 0;
}
