#include "models/snapshot/snapshot_model.hpp"

#include <cassert>
#include <functional>

#include "models/sharedmem/sharedmem_model.hpp"

namespace lacon {

std::vector<OrderedPartition> ordered_partitions_of(ProcessSet members) {
  std::vector<OrderedPartition> out;
  OrderedPartition current;
  std::function<void(ProcessSet)> recurse = [&](ProcessSet remaining) {
    if (remaining.empty()) {
      out.push_back(current);
      return;
    }
    const std::uint64_t mask = remaining.mask();
    for (std::uint64_t sub = mask; sub != 0; sub = (sub - 1) & mask) {
      current.push_back(ProcessSet(sub));
      recurse(remaining - ProcessSet(sub));
      current.pop_back();
    }
  };
  recurse(members);
  return out;
}

SnapshotModel::SnapshotModel(int n, const DecisionRule& rule,
                             std::vector<std::vector<Value>> initial_inputs)
    : LayeredModel(n, rule, std::move(initial_inputs)) {}

StateId SnapshotModel::apply_partition(StateId x,
                                       const OrderedPartition& partition) {
  const StateRef s = state(x);
  GlobalState next;
  // Persistent registers, updated by the writes below.
  next.env.assign(s.env.begin(), s.env.end());
  next.locals.assign(s.locals.begin(), s.locals.end());
  next.decisions.assign(s.decisions.begin(), s.decisions.end());

  for (const ProcessSet& block : partition) {
    // All block members write their pre-phase views ...
    for (ProcessId i : block.to_vector()) {
      next.env[static_cast<std::size_t>(i)] =
          static_cast<std::int64_t>(s.locals[static_cast<std::size_t>(i)]);
    }
    // ... then all snapshot the full memory (their own writes included).
    for (ProcessId i : block.to_vector()) {
      std::vector<Obs> obs;
      obs.reserve(static_cast<std::size_t>(n()));
      for (ProcessId r = 0; r < n(); ++r) {
        obs.push_back(Obs{r, static_cast<ViewId>(
                                 next.env[static_cast<std::size_t>(r)])});
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

std::string SnapshotModel::env_to_string(StateId x) const {
  return register_file_to_string(views(), state(x));
}

bool SnapshotModel::env_well_formed(std::span<const std::int64_t> env,
                                    std::uint64_t views_end) const {
  return register_file_well_formed(env, n(), views_end);
}

void SnapshotModel::sym_env_key(const StateRef& s, sym::Relabeling& rel,
                                std::vector<std::uint64_t>* out) const {
  // Relabeled register file: position p holds old register old_at(p), with
  // its view keyed structurally (id-free). kNoView keys as a sentinel pair.
  for (std::size_t p = 0; p < s.env.size(); ++p) {
    const std::int64_t w = s.env[static_cast<std::size_t>(rel.old_at(p))];
    if (w == kNoView) {
      out->push_back(0x756e777269747465ULL);  // "unwritte[n]"
      out->push_back(0x6e6f76696577ULL);      // "noview"
    } else {
      const auto k = rel.rewrite_key(static_cast<ViewId>(w));
      out->push_back(k.first);
      out->push_back(k.second);
    }
  }
}

std::vector<std::int64_t> SnapshotModel::sym_permute_env(
    const StateRef& s, sym::Relabeling& rel) const {
  std::vector<std::int64_t> env(s.env.size());
  for (std::size_t p = 0; p < s.env.size(); ++p) {
    const std::int64_t w = s.env[static_cast<std::size_t>(rel.old_at(p))];
    env[p] =
        w == kNoView
            ? static_cast<std::int64_t>(kNoView)
            : static_cast<std::int64_t>(rel.rewrite(static_cast<ViewId>(w)));
  }
  return env;
}

std::vector<StateId> SnapshotModel::compute_layer(StateId x) {
  std::vector<StateId> succ;
  // Full participation ...
  for (const OrderedPartition& p : ordered_partitions_of(ProcessSet::all(n()))) {
    succ.push_back(apply_partition(x, p));
  }
  // ... and one process slow/absent (1-resilience).
  for (ProcessId j = 0; j < n(); ++j) {
    ProcessSet members = ProcessSet::all(n());
    members.erase(j);
    for (const OrderedPartition& p : ordered_partitions_of(members)) {
      succ.push_back(apply_partition(x, p));
    }
  }
  return succ;
}

}  // namespace lacon
