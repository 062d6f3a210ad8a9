#include "models/mobile/mobile_model.hpp"

#include <cassert>

namespace lacon {

MobileModel::MobileModel(int n, const DecisionRule& rule,
                         std::vector<std::vector<Value>> initial_inputs)
    : LayeredModel(n, rule, std::move(initial_inputs)) {}

StateId MobileModel::apply(StateId x, ProcessId j, int k) {
  assert(k >= 0 && k <= n());
  return apply_general(x, j, ProcessSet::prefix(k));
}

StateId MobileModel::apply_general(StateId x, ProcessId j, ProcessSet lost) {
  SuccessorBuilder b;
  return apply_general(b, x, j, lost);
}

StateId MobileModel::apply_general(SuccessorBuilder& b, StateId x,
                                   ProcessId j, ProcessSet lost) {
  assert(j >= 0 && j < n());
  const StateRef s = state(x);
  // The environment state is constant in M^mf.
  b.start(s);
  std::vector<Obs>& obs = b.obs[0];
  for (ProcessId i = 0; i < n(); ++i) {
    const auto iu = static_cast<std::size_t>(i);
    obs.clear();
    for (ProcessId sender = 0; sender < n(); ++sender) {
      if (sender == i) continue;  // own state is carried by `prev`
      const bool is_lost = (sender == j) && lost.contains(i);
      obs.push_back(
          Obs{sender,
              is_lost ? kNoView : s.locals[static_cast<std::size_t>(sender)]});
    }
    const ViewId view = views().extend(s.locals[iu], obs);
    b.next.locals[iu] = view;
    b.next.decisions[iu] = updated_decision(i, s.decisions[iu], view);
  }
  return intern_canonical(b.next);
}

std::vector<StateId> MobileModel::full_layer(StateId x) {
  std::vector<StateId> succ;
  SuccessorBuilder b;
  for (ProcessId j = 0; j < n(); ++j) {
    const std::uint64_t all = ProcessSet::all(n()).mask();
    for (std::uint64_t g = 0; g <= all; ++g) {
      if ((g | all) != all) continue;
      succ.push_back(apply_general(b, x, j, ProcessSet(g)));
    }
  }
  std::sort(succ.begin(), succ.end());
  succ.erase(std::unique(succ.begin(), succ.end()), succ.end());
  return succ;
}

std::vector<StateId> MobileModel::compute_layer(StateId x) {
  std::vector<StateId> succ;
  succ.reserve(static_cast<std::size_t>(n() * (n() + 1)));
  SuccessorBuilder b;
  for (ProcessId j = 0; j < n(); ++j) {
    for (int k = 0; k <= n(); ++k) {
      succ.push_back(apply_general(b, x, j, ProcessSet::prefix(k)));
    }
  }
  return succ;
}

}  // namespace lacon
