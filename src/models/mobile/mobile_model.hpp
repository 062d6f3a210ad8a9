// The single-mobile-failure synchronous model M^mf (Section 5) with the
// synchronic layering S1.
//
// Rounds are synchronous; in every round the environment picks one process j
// whose messages to a subset G of the processes are lost. The layering S1
// restricts G to prefix sets [k], so
//
//   S1(x) = { x(j,[k]) : 1 <= j <= n, 0 <= k <= n }.
//
// The environment can silence a single process forever (pick the same j with
// G = [n] in every round), but no process is ever *failed* at a finite state
// — the environment can always stop omitting — so the model displays no
// finite failure and failed_at is empty everywhere. Faulty(i, r) holds
// exactly when i is silenced in all but finitely many rounds of r.
#pragma once

#include "core/model.hpp"

namespace lacon {

class MobileModel final : public LayeredModel {
 public:
  MobileModel(int n, const DecisionRule& rule,
              std::vector<std::vector<Value>> initial_inputs = {});

  std::string name() const override { return "M^mf/S1"; }

  // Deliberately kTrivial: S1 restricts loss sets to index prefixes [k],
  // which relabeling does not preserve. (The full M^mf layer of
  // full_layer() *is* symmetric, but the model's compute_layer is S1.)
  sym::SymmetryClass symmetry() const override {
    return sym::SymmetryClass::kTrivial;
  }

  // x(j, [k]): the state after one synchronous round in which the messages
  // from j to processes 0..k-1 are lost. Public so tests can check the
  // paper's state identities (e.g. x(j,[0]) == x(j',[0])) directly.
  StateId apply(StateId x, ProcessId j, int k);

  // x(j, G) for an arbitrary loss set G — the action of the *full*
  // Santoro–Widmayer model M^mf, of which S1 (prefix sets only) carves the
  // submodel. Every S1 state is reachable this way, which is what makes S1
  // a layering of M^mf (Lemma 5.1(i)).
  StateId apply_general(StateId x, ProcessId j, ProcessSet lost);

  // The full-model layer { x(j,G) : j, G ⊆ processes }; strictly richer
  // than S1(x) for n >= 3.
  std::vector<StateId> full_layer(StateId x);

 protected:
  std::vector<StateId> compute_layer(StateId x) override;

 private:
  // apply_general built in `b` (reused across a layer).
  StateId apply_general(SuccessorBuilder& b, StateId x, ProcessId j,
                        ProcessSet lost);
};

}  // namespace lacon
