// Front-end helpers shared by the examples, tests and benchmark harnesses:
// uniform model construction across the four models and a one-call runner
// for the full mechanized lemma suite of a model instance.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine/lemmas.hpp"
#include "engine/spec.hpp"

namespace lacon {

enum class ModelKind { kMobile, kSharedMem, kMsgPass, kSync };

std::string model_kind_name(ModelKind kind);

// Builds a model; `t` is only used by kSync. `rule` must outlive the model.
std::unique_ptr<LayeredModel> make_model(
    ModelKind kind, int n, int t, const DecisionRule& rule,
    std::vector<std::vector<Value>> initial_inputs = {});

// The valence-exactness criterion appropriate for the model (see
// engine/valence.hpp): quiescence for the models where every process acts
// in every layer, convergence for the asynchronous layerings with sleeper
// branches.
Exactness default_exactness(ModelKind kind);

// Whether the model's layers are similarity connected as full sets (S1 and
// S^t: yes; S^rw and S^per: only valence connected — the paper bridges the
// stragglers by the diamond / two-round arguments).
bool layers_similarity_connected(ModelKind kind);

struct NamedCheck {
  std::string name;
  CheckResult result;
};

// Runs every applicable lemma check for the model instance. `depth` bounds
// the exploration, `horizon` the valence lookahead (pick >= the rule's
// decision round + 1).
std::vector<NamedCheck> run_lemma_suite(ModelKind kind, int n, int t,
                                        int depth, int horizon,
                                        const DecisionRule& rule);

// Renders the runtime instrumentation registry (runtime/stats.hpp) — the
// process guard spec and every counter and timer the hot paths recorded
// since the last reset — as a table. The bench harnesses
// print this after their experiment tables.
std::string runtime_report();

}  // namespace lacon
