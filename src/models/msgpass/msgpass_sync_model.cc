#include "models/msgpass/msgpass_sync_model.hpp"

#include <algorithm>
#include <cassert>

namespace lacon {

MsgPassSyncModel::MsgPassSyncModel(
    int n, const DecisionRule& rule,
    std::vector<std::vector<Value>> initial_inputs)
    : TransitEnvModel(n, rule, std::move(initial_inputs)) {}

StateId MsgPassSyncModel::apply_timed(StateId x, ProcessId j, int k) {
  SuccessorBuilder b;
  return apply_timed(b, x, j, k);
}

StateId MsgPassSyncModel::apply_absent(StateId x, ProcessId j) {
  SuccessorBuilder b;
  return apply_absent(b, x, j);
}

StateId MsgPassSyncModel::apply_timed(SuccessorBuilder& b, StateId x,
                                      ProcessId j, int k) {
  assert(j >= 0 && j < n());
  assert(k >= 0 && k <= n());
  const StateRef s = state(x);
  // The in-transit multiset is the builder's env.
  b.start(s);
  std::vector<std::int64_t>& transit = b.next.env;

  auto do_receive = [&](ProcessId i) {
    const auto iu = static_cast<std::size_t>(i);
    take_mailbox(transit, i, b.obs[0]);
    const ViewId view = views().extend(b.next.locals[iu], b.obs[0]);
    b.next.locals[iu] = view;
    b.next.decisions[iu] = updated_decision(i, b.next.decisions[iu], view);
  };
  auto do_send = [&](ProcessId i) {
    // Message content is the pre-phase view (see msgpass_model.cc).
    const ViewId pre = s.locals[static_cast<std::size_t>(i)];
    for (ProcessId dest = 0; dest < n(); ++dest) {
      if (dest == i) continue;
      transit.push_back(pack_message(i, dest, pre));
    }
  };

  // S1: the proper processes send.
  for (ProcessId i = 0; i < n(); ++i) {
    if (i != j) do_send(i);
  }
  // R1: the proper processes with index < k receive.
  for (ProcessId i = 0; i < n(); ++i) {
    if (i != j && i < k) do_receive(i);
  }
  // S2: the slow process sends.
  do_send(j);
  // R2: j and the proper processes with index >= k receive.
  for (ProcessId i = 0; i < n(); ++i) {
    if (i == j || i >= k) do_receive(i);
  }

  std::sort(transit.begin(), transit.end());
  return intern_canonical(b.next);
}

StateId MsgPassSyncModel::apply_absent(SuccessorBuilder& b, StateId x,
                                       ProcessId j) {
  assert(j >= 0 && j < n());
  const StateRef s = state(x);
  b.start(s);
  std::vector<std::int64_t>& transit = b.next.env;

  for (ProcessId i = 0; i < n(); ++i) {
    if (i == j) continue;
    const ViewId pre = s.locals[static_cast<std::size_t>(i)];
    for (ProcessId dest = 0; dest < n(); ++dest) {
      if (dest == i) continue;
      transit.push_back(pack_message(i, dest, pre));
    }
  }
  for (ProcessId i = 0; i < n(); ++i) {
    if (i == j) continue;
    const auto iu = static_cast<std::size_t>(i);
    take_mailbox(transit, i, b.obs[0]);
    const ViewId view = views().extend(b.next.locals[iu], b.obs[0]);
    b.next.locals[iu] = view;
    b.next.decisions[iu] = updated_decision(i, b.next.decisions[iu], view);
  }

  std::sort(transit.begin(), transit.end());
  return intern_canonical(b.next);
}

std::vector<StateId> MsgPassSyncModel::compute_layer(StateId x) {
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
