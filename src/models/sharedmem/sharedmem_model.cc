#include "models/sharedmem/sharedmem_model.hpp"

#include <algorithm>
#include <cassert>

namespace lacon {
namespace {

// Fills `obs` with one full read sweep over registers whose contents are
// given by `registers` (entries are ViewIds or kNoView).
void read_sweep(std::span<const std::int64_t> registers,
                std::vector<Obs>& obs) {
  obs.clear();
  for (std::size_t r = 0; r < registers.size(); ++r) {
    obs.push_back(Obs{static_cast<std::int32_t>(r),
                      static_cast<ViewId>(registers[r])});
  }
}

}  // namespace

SharedMemModel::SharedMemModel(int n, const DecisionRule& rule,
                               std::vector<std::vector<Value>> initial_inputs)
    : LayeredModel(n, rule, std::move(initial_inputs)) {}

StateId SharedMemModel::apply_timed(StateId x, ProcessId j, int k) {
  SuccessorBuilder b;
  return apply_timed(b, x, j, k);
}

StateId SharedMemModel::apply_absent(StateId x, ProcessId j) {
  SuccessorBuilder b;
  return apply_absent(b, x, j);
}

StateId SharedMemModel::apply_timed(SuccessorBuilder& b, StateId x,
                                    ProcessId j, int k) {
  assert(j >= 0 && j < n());
  assert(k >= 0 && k <= n());
  const StateRef s = state(x);
  b.start(s);
  std::vector<std::int64_t>& regs = b.next.env;

  // Register contents during R1: the proper processes' W1 writes are in, j's
  // register still holds its pre-round value.
  for (ProcessId i = 0; i < n(); ++i) {
    const auto iu = static_cast<std::size_t>(i);
    if (i != j) regs[iu] = s.locals[iu];
  }
  read_sweep(regs, b.obs[0]);
  // Register contents during R2: j's W2 write is in as well, and so are all
  // writes of the round when it ends.
  regs[static_cast<std::size_t>(j)] = s.locals[static_cast<std::size_t>(j)];
  read_sweep(regs, b.obs[1]);

  for (ProcessId i = 0; i < n(); ++i) {
    const auto iu = static_cast<std::size_t>(i);
    // The proper processes with index < k read early (R1); j and the proper
    // processes with index >= k read late (R2).
    const bool early = (i != j) && (i < k);
    const ViewId view = views().extend(s.locals[iu], b.obs[early ? 0 : 1]);
    b.next.locals[iu] = view;
    b.next.decisions[iu] = updated_decision(i, s.decisions[iu], view);
  }
  return intern_canonical(b.next);
}

StateId SharedMemModel::apply_absent(SuccessorBuilder& b, StateId x,
                                     ProcessId j) {
  assert(j >= 0 && j < n());
  const StateRef s = state(x);
  b.start(s);
  std::vector<std::int64_t>& regs = b.next.env;

  // Register contents during R1: the proper processes' W1 writes; j's
  // register keeps its pre-round value (j never writes this round).
  for (ProcessId i = 0; i < n(); ++i) {
    const auto iu = static_cast<std::size_t>(i);
    if (i != j) regs[iu] = s.locals[iu];
  }
  read_sweep(regs, b.obs[0]);

  // j keeps its local state and decision.
  for (ProcessId i = 0; i < n(); ++i) {
    if (i == j) continue;
    const auto iu = static_cast<std::size_t>(i);
    const ViewId view = views().extend(s.locals[iu], b.obs[0]);
    b.next.locals[iu] = view;
    b.next.decisions[iu] = updated_decision(i, s.decisions[iu], view);
  }
  return intern_canonical(b.next);
}

std::string SharedMemModel::env_to_string(StateId x) const {
  return register_file_to_string(views(), state(x));
}

std::string register_file_to_string(const ViewArena& views,
                                    const StateRef& s) {
  std::string out;
  for (std::int64_t r : s.env) {
    out += r == kNoView ? "-" : views.to_string(static_cast<ViewId>(r));
    out += ',';
  }
  return out;
}

bool register_file_well_formed(std::span<const std::int64_t> env, int n,
                               std::uint64_t views_end) {
  return env.size() == static_cast<std::size_t>(n) &&
         std::all_of(env.begin(), env.end(), [views_end](std::int64_t r) {
           return r == kNoView ||
                  (r >= 0 && static_cast<std::uint64_t>(r) < views_end);
         });
}

bool SharedMemModel::env_well_formed(std::span<const std::int64_t> env,
                                     std::uint64_t views_end) const {
  return register_file_well_formed(env, n(), views_end);
}

std::vector<StateId> SharedMemModel::compute_layer(StateId x) {
  std::vector<StateId> succ;
  succ.reserve(static_cast<std::size_t>(n() * (n() + 2)));
  SuccessorBuilder b;
  for (ProcessId j = 0; j < n(); ++j) {
    for (int k = 0; k <= n(); ++k) {
      succ.push_back(apply_timed(b, x, j, k));
    }
    succ.push_back(apply_absent(b, x, j));
  }
  return succ;
}

}  // namespace lacon
