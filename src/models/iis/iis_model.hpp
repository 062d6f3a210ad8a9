// The iterated immediate snapshot (IIS) model [Borowsky–Gafni], which
// inspires the paper's permutation layering and to which the full version
// of the paper extends the solvability equivalence (end of Section 7).
//
// Round r uses a fresh one-shot snapshot memory M_r. An environment action
// is an *ordered partition* of the processes into blocks B_1, ..., B_m: the
// members of a block write their current views to M_r simultaneously and
// then snapshot M_r, seeing exactly the writes of B_1 ∪ ... ∪ B_their-own.
// Because each M_r is never read after round r, its contents are fully
// captured in the views and the environment state is constant.
//
// Every process takes a step in every layer (IIS is the wait-free world:
// asynchrony appears as block ordering, not as missed steps), so quiescence
// based exactness applies and no process is ever failed at a state. The
// similarity structure mirrors the permutation layering: splitting a
// singleton off a block changes exactly that process's view, so layers are
// similarity connected through block refinements and coarsenings; the
// standard solo-ordering indistinguishability gives the valence bridges.
#pragma once

#include <bit>

#include "core/model.hpp"

namespace lacon {

// An ordered partition: blocks in schedule order, each block a non-empty
// set of processes; the blocks partition {0..n-1}.
using OrderedPartition = std::vector<ProcessSet>;

// Calls f(i) for every member i of `set`, in increasing order, straight
// from the set's bits.
template <typename F>
void for_each_member(ProcessSet set, F&& f) {
  for (std::uint64_t m = set.mask(); m != 0; m &= m - 1) {
    f(static_cast<ProcessId>(std::countr_zero(m)));
  }
}

class IisModel final : public LayeredModel {
 public:
  IisModel(int n, const DecisionRule& rule,
           std::vector<std::vector<Value>> initial_inputs = {});

  std::string name() const override { return "IIS"; }

  // The ordered-partition action set is closed under relabeling and the
  // environment is constant, so the full symmetric group quotients out.
  sym::SymmetryClass symmetry() const override {
    return sym::SymmetryClass::kFull;
  }

  // Applies one IIS round under the given ordered partition. Exposed for
  // the structural tests.
  StateId apply_partition(StateId x, const OrderedPartition& partition);

  const std::vector<OrderedPartition>& partitions() const {
    return partitions_;
  }

 protected:
  std::vector<StateId> compute_layer(StateId x) override;

 private:
  // apply_partition built in `b` (reused across a layer).
  StateId apply_partition(SuccessorBuilder& b, StateId x,
                          const OrderedPartition& partition);

  std::vector<OrderedPartition> partitions_;
};

// All ordered partitions of a given subset of {0..n-1}.
std::vector<OrderedPartition> ordered_partitions_of(ProcessSet members);

// All ordered partitions of {0..n-1} (there are Fubini(n): 3, 13, 75 for
// n = 2, 3, 4).
std::vector<OrderedPartition> all_ordered_partitions(int n);

}  // namespace lacon
