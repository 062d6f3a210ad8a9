// The *synchronic* layering for asynchronous message passing.
//
// Section 5.1 notes that the shared-memory impossibility proof via S^rw
// "can be given for asynchronous message passing as well — the structure of
// the layering function, and the reasoning underlying the results remain
// unchanged", and that the resulting submodel "is even closer to the
// synchronous models that are popular in the literature". This model makes
// that remark concrete: virtual rounds with four stages S1 R1 S2 R2 (send
// and receive in place of write and read), driven by the same environment
// actions as S^rw:
//
//   (j, A): the proper processes send (their pre-phase views) in S1 and
//           receive all outstanding messages in R1; j is absent.
//   (j, k): the proper processes send in S1; the proper processes with
//           index < k receive in R1 (missing j's fresh message); j sends in
//           S2; j and the proper processes with index >= k receive in R2.
//
// Unlike registers, undelivered messages persist: in x(j,n) the slow j's
// message stays in transit and arrives a round late, which is exactly the
// Lemma 5.3 bridge — y = x(j,n)(j,A) and y' = x(j,A)(j,0) agree modulo j
// under the same mailbox reading of agree-modulo as the permutation model
// (the leftover messages differ only in j's own mailbox).
#pragma once

#include "models/msgpass/msgpass_model.hpp"

namespace lacon {

class MsgPassSyncModel final : public TransitEnvModel {
 public:
  MsgPassSyncModel(int n, const DecisionRule& rule,
                   std::vector<std::vector<Value>> initial_inputs = {});

  std::string name() const override { return "AsyncMP/S^sync"; }

  // Deliberately kTrivial: the (j,k) actions split receivers by process
  // *index* (who receives in R1 vs R2), so the layering is not closed under
  // relabeling.
  sym::SymmetryClass symmetry() const override {
    return sym::SymmetryClass::kTrivial;
  }

  // x(j, k) and x(j, A), as above. Exposed for the structural tests.
  StateId apply_timed(StateId x, ProcessId j, int k);
  StateId apply_absent(StateId x, ProcessId j);

 protected:
  std::vector<StateId> compute_layer(StateId x) override;

 private:
  // apply_timed and apply_absent built in `b` (reused across a layer).
  StateId apply_timed(SuccessorBuilder& b, StateId x, ProcessId j, int k);
  StateId apply_absent(SuccessorBuilder& b, StateId x, ProcessId j);
};

}  // namespace lacon
