// Immediate-snapshot executions over (persistent) snapshot shared memory
// [Borowsky–Gafni; Saks–Zaharoglou] — the model the paper's permutation
// layering transplants to message passing, and one of the models the full
// paper extends the Corollary 7.3 equivalence to.
//
// Each process owns a single-writer register; a *snapshot* reads all
// registers atomically. A layer action is an ordered partition of the
// participating processes into blocks: the members of a block write their
// pre-phase views simultaneously and then snapshot the memory, seeing the
// writes of all blocks up to their own plus the persistent values of
// non-participants. For 1-resilience the participants are either everyone
// or everyone but one (the slow process), mirroring the permutation
// layering's full and drop-one actions.
//
// Unlike IIS, the registers persist across rounds: a slow process's last
// write stays visible, which is exactly the shared-memory counterpart of
// the in-transit stale message of the synchronic MP model.
#pragma once

#include "core/model.hpp"
#include "models/iis/iis_model.hpp"  // OrderedPartition, for_each_member

namespace lacon {

class SnapshotModel final : public LayeredModel {
 public:
  SnapshotModel(int n, const DecisionRule& rule,
                std::vector<std::vector<Value>> initial_inputs = {});

  std::string name() const override { return "M^snap/IS"; }

  // Participant sets (everyone / everyone-but-one) and ordered partitions
  // are closed under relabeling, so the full symmetric group quotients out.
  sym::SymmetryClass symmetry() const override {
    return sym::SymmetryClass::kFull;
  }

  // Register p belongs to process p: relabeling permutes the register file
  // and rewrites the interned views it holds.
  void sym_env_key(const StateRef& s, sym::Relabeling& rel,
                   std::vector<std::uint64_t>* out) const override;
  std::vector<std::int64_t> sym_permute_env(
      const StateRef& s, sym::Relabeling& rel) const override;

  // Applies one immediate-snapshot round in which exactly the processes in
  // the partition participate (others keep their state and register).
  StateId apply_partition(StateId x, const OrderedPartition& partition);

  // The layer's actions, in compute_layer's order: every ordered partition
  // of all processes, then for each process j every ordered partition of
  // the others. Built once, at construction.
  const std::vector<OrderedPartition>& partitions() const {
    return partitions_;
  }

  // Registers hold interned ViewIds; render them as view terms.
  std::string env_to_string(StateId x) const override;

  // The env is a register file (register_file_well_formed).
  bool env_well_formed(std::span<const std::int64_t> env,
                       std::uint64_t views_end) const override;

 protected:
  std::vector<StateId> compute_layer(StateId x) override;

  std::vector<std::int64_t> initial_env() const override {
    return std::vector<std::int64_t>(static_cast<std::size_t>(n()), kNoView);
  }

 private:
  // apply_partition built in `b` (reused across a layer).
  StateId apply_partition(SuccessorBuilder& b, StateId x,
                          const OrderedPartition& partition);

  std::vector<OrderedPartition> partitions_;
};

}  // namespace lacon
