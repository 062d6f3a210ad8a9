#include "models/iis/iis_model.hpp"

#include <cassert>
#include <functional>

namespace lacon {

std::vector<OrderedPartition> all_ordered_partitions(int n) {
  std::vector<OrderedPartition> out;
  OrderedPartition current;
  const ProcessSet everyone = ProcessSet::all(n);
  // Recursively choose the first block (any non-empty subset of the
  // remaining processes), then partition the rest.
  std::function<void(ProcessSet)> recurse = [&](ProcessSet remaining) {
    if (remaining.empty()) {
      out.push_back(current);
      return;
    }
    const std::uint64_t mask = remaining.mask();
    // Enumerate non-empty submasks of `mask`.
    for (std::uint64_t sub = mask; sub != 0; sub = (sub - 1) & mask) {
      current.push_back(ProcessSet(sub));
      recurse(remaining - ProcessSet(sub));
      current.pop_back();
    }
  };
  recurse(everyone);
  return out;
}

IisModel::IisModel(int n, const DecisionRule& rule,
                   std::vector<std::vector<Value>> initial_inputs)
    : LayeredModel(n, rule, std::move(initial_inputs)),
      partitions_(all_ordered_partitions(n)) {}

StateId IisModel::apply_partition(StateId x,
                                  const OrderedPartition& partition) {
  const StateRef s = state(x);
  GlobalState next;
  // Env constant: each M_r is consumed within its round.
  next.env.assign(s.env.begin(), s.env.end());
  next.locals.assign(s.locals.begin(), s.locals.end());
  next.decisions.assign(s.decisions.begin(), s.decisions.end());

  ProcessSet written;  // processes whose round-r write precedes this block's
                       // snapshot
  for (const ProcessSet& block : partition) {
    written = written | block;
    for (ProcessId i : block.to_vector()) {
      // Snapshot of M_r: the pre-round views of everyone written so far.
      std::vector<Obs> obs;
      for (ProcessId w : written.to_vector()) {
        if (w == i) continue;  // own state carried by `prev`
        obs.push_back(Obs{w, s.locals[static_cast<std::size_t>(w)]});
      }
      const ViewId view = views().extend(
          s.locals[static_cast<std::size_t>(i)], obs);
      next.locals[static_cast<std::size_t>(i)] = view;
      next.decisions[static_cast<std::size_t>(i)] = updated_decision(
          i, s.decisions[static_cast<std::size_t>(i)], view);
    }
  }
  return intern(std::move(next));
}

std::vector<StateId> IisModel::compute_layer(StateId x) {
  std::vector<StateId> succ;
  succ.reserve(partitions_.size());
  for (const OrderedPartition& partition : partitions_) {
    succ.push_back(apply_partition(x, partition));
  }
  return succ;
}

}  // namespace lacon
