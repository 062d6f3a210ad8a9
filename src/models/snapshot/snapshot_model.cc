#include "models/snapshot/snapshot_model.hpp"

#include <cassert>

#include "models/sharedmem/sharedmem_model.hpp"

namespace lacon {
namespace {

// Full participation, then each process j slow/absent (1-resilience).
std::vector<OrderedPartition> snapshot_partitions(int n) {
  std::vector<OrderedPartition> out = all_ordered_partitions(n);
  for (ProcessId j = 0; j < n; ++j) {
    ProcessSet members = ProcessSet::all(n);
    members.erase(j);
    for (OrderedPartition& p : ordered_partitions_of(members)) {
      out.push_back(std::move(p));
    }
  }
  return out;
}

}  // namespace

SnapshotModel::SnapshotModel(int n, const DecisionRule& rule,
                             std::vector<std::vector<Value>> initial_inputs)
    : LayeredModel(n, rule, std::move(initial_inputs)),
      partitions_(snapshot_partitions(n)) {}

StateId SnapshotModel::apply_partition(StateId x,
                                       const OrderedPartition& partition) {
  SuccessorBuilder b;
  return apply_partition(b, x, partition);
}

StateId SnapshotModel::apply_partition(SuccessorBuilder& b, StateId x,
                                       const OrderedPartition& partition) {
  const StateRef s = state(x);
  // Persistent registers, updated by the writes below.
  b.start(s);
  std::vector<std::int64_t>& regs = b.next.env;
  std::vector<Obs>& obs = b.obs[0];
  for (const ProcessSet& block : partition) {
    // All block members write their pre-phase views ...
    for_each_member(block, [&](ProcessId i) {
      const auto iu = static_cast<std::size_t>(i);
      regs[iu] = s.locals[iu];
    });
    // ... then all snapshot the full memory (their own writes included).
    obs.clear();
    for (ProcessId r = 0; r < n(); ++r) {
      obs.push_back(
          Obs{r, static_cast<ViewId>(regs[static_cast<std::size_t>(r)])});
    }
    for_each_member(block, [&](ProcessId i) {
      const auto iu = static_cast<std::size_t>(i);
      const ViewId view = views().extend(s.locals[iu], obs);
      b.next.locals[iu] = view;
      b.next.decisions[iu] = updated_decision(i, s.decisions[iu], view);
    });
  }
  return intern_canonical(b.next);
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
  succ.reserve(partitions_.size());
  SuccessorBuilder b;
  for (const OrderedPartition& partition : partitions_) {
    succ.push_back(apply_partition(b, x, partition));
  }
  return succ;
}

}  // namespace lacon
