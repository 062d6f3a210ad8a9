// The asynchronous single-writer/multi-reader shared-memory model M^rw with
// the synchronic layering S^rw (Section 5.1).
//
// The shared registers V_1..V_n live in the environment's local state; a
// local phase of process i is at most one write_i followed by a maximal
// sequence of reads (each register read at most once). The layering arranges
// virtual rounds of four stages W1 R1 W2 R2 driven by environment actions:
//
//   (j, A): the proper processes (everyone but j) write in W1 and read in
//           R1; j neither writes nor reads (absent).
//   (j, k): the proper processes write in W1, j writes in W2; the proper
//           processes with index < k read in R1 (missing j's fresh write),
//           j and the proper processes with index >= k read in R2.
//
//   S^rw(x) = { x(j,k) : j in [n], 0 <= k <= n } ∪ { x(j,A) : j in [n] }.
//
// Every S^rw-run is fair — all processes but at most one act infinitely
// often — so no process is ever failed at a finite state (the model displays
// no finite failure) and S^rw generates a layering of R(A, M^rw). The
// submodel is "almost synchronous": in every round at least n-1 processes
// write and read at least n-1 fresh values, which is what makes Corollary
// 5.4 the strong form of the FLP-style impossibility.
#pragma once

#include "core/model.hpp"

namespace lacon {

class SharedMemModel final : public LayeredModel {
 public:
  SharedMemModel(int n, const DecisionRule& rule,
                 std::vector<std::vector<Value>> initial_inputs = {});

  std::string name() const override { return "M^rw/S^rw"; }

  // Deliberately kTrivial: the (j,k) actions split readers by process
  // *index* ("proper processes with index < k read in R1"), so the layering
  // is not closed under relabeling — a quotient would merge states whose
  // futures differ.
  sym::SymmetryClass symmetry() const override {
    return sym::SymmetryClass::kTrivial;
  }

  // x(j, k): see above. k in [0, n].
  StateId apply_timed(StateId x, ProcessId j, int k);

  // x(j, A): j is absent for the round.
  StateId apply_absent(StateId x, ProcessId j);

  // Registers hold interned ViewIds; render them as view terms.
  std::string env_to_string(StateId x) const override;

  // The env is a register file (register_file_well_formed).
  bool env_well_formed(std::span<const std::int64_t> env,
                       std::uint64_t views_end) const override;

 protected:
  std::vector<StateId> compute_layer(StateId x) override;

  // Registers are initially unwritten.
  std::vector<std::int64_t> initial_env() const override {
    return std::vector<std::int64_t>(static_cast<std::size_t>(n()), kNoView);
  }

 private:
  // apply_timed and apply_absent built in `b` (reused across a layer).
  StateId apply_timed(SuccessorBuilder& b, StateId x, ProcessId j, int k);
  StateId apply_absent(SuccessorBuilder& b, StateId x, ProcessId j);
};

// True when `env` is a register file for n processes: n words, each kNoView
// or a view id below `views_end`. Shared by the two models whose
// environment is one register per process (S^rw and immediate snapshot).
bool register_file_well_formed(std::span<const std::int64_t> env, int n,
                               std::uint64_t views_end);

// Renders a register file as its view terms ("-" for an unwritten
// register) — the id-free env_to_string of the same two models.
std::string register_file_to_string(const ViewArena& views,
                                    const StateRef& s);

}  // namespace lacon
