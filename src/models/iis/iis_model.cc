#include "models/iis/iis_model.hpp"

#include <cassert>

namespace lacon {
namespace {

// Appends to `out` every ordered partition of `remaining`, each after the
// blocks already in `current`: the first block is any non-empty subset of
// the remaining processes, then the rest is partitioned.
void append_ordered_partitions(ProcessSet remaining, OrderedPartition& current,
                               std::vector<OrderedPartition>& out) {
  if (remaining.empty()) {
    out.push_back(current);
    return;
  }
  const std::uint64_t mask = remaining.mask();
  for (std::uint64_t sub = mask; sub != 0; sub = (sub - 1) & mask) {
    current.push_back(ProcessSet(sub));
    append_ordered_partitions(remaining - ProcessSet(sub), current, out);
    current.pop_back();
  }
}

}  // namespace

std::vector<OrderedPartition> ordered_partitions_of(ProcessSet members) {
  std::vector<OrderedPartition> out;
  OrderedPartition current;
  append_ordered_partitions(members, current, out);
  return out;
}

std::vector<OrderedPartition> all_ordered_partitions(int n) {
  return ordered_partitions_of(ProcessSet::all(n));
}

IisModel::IisModel(int n, const DecisionRule& rule,
                   std::vector<std::vector<Value>> initial_inputs)
    : LayeredModel(n, rule, std::move(initial_inputs)),
      partitions_(all_ordered_partitions(n)) {}

StateId IisModel::apply_partition(StateId x,
                                  const OrderedPartition& partition) {
  SuccessorBuilder b;
  return apply_partition(b, x, partition);
}

StateId IisModel::apply_partition(SuccessorBuilder& b, StateId x,
                                  const OrderedPartition& partition) {
  const StateRef s = state(x);
  // Env constant: each M_r is consumed within its round.
  b.start(s);
  std::vector<Obs>& obs = b.obs[0];
  ProcessSet written;  // processes whose round-r write precedes this block's
                       // snapshot
  for (const ProcessSet& block : partition) {
    written = written | block;
    for_each_member(block, [&](ProcessId i) {
      const auto iu = static_cast<std::size_t>(i);
      // Snapshot of M_r: the pre-round views of everyone written so far.
      obs.clear();
      for_each_member(written, [&](ProcessId w) {
        if (w == i) return;  // own state carried by `prev`
        obs.push_back(Obs{w, s.locals[static_cast<std::size_t>(w)]});
      });
      const ViewId view = views().extend(s.locals[iu], obs);
      b.next.locals[iu] = view;
      b.next.decisions[iu] = updated_decision(i, s.decisions[iu], view);
    });
  }
  return intern_canonical(b.next);
}

std::vector<StateId> IisModel::compute_layer(StateId x) {
  std::vector<StateId> succ;
  succ.reserve(partitions_.size());
  SuccessorBuilder b;
  for (const OrderedPartition& partition : partitions_) {
    succ.push_back(apply_partition(b, x, partition));
  }
  return succ;
}

}  // namespace lacon
