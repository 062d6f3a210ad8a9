#include "models/msgpass/msgpass_sync_model.hpp"

#include <algorithm>
#include <cassert>

#include "models/msgpass/msgpass_model.hpp"
#include "util/simd.hpp"

namespace lacon {

MsgPassSyncModel::MsgPassSyncModel(
    int n, const DecisionRule& rule,
    std::vector<std::vector<Value>> initial_inputs)
    : LayeredModel(n, rule, std::move(initial_inputs)) {}

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

bool MsgPassSyncModel::agree_modulo(StateId x, StateId y, ProcessId j) const {
  // Same mailbox attribution as the permutation-layering model: the
  // messages addressed to j belong to j's local state.
  const StateRef sx = state(x);
  const StateRef sy = state(y);
  const auto nn = static_cast<std::size_t>(n());
  const auto skip = static_cast<std::size_t>(j);
  if (!simd::lanes_equal_skip(sx.locals.data(), sy.locals.data(), nn, skip) ||
      !simd::lanes_equal_skip(sx.decisions.data(), sy.decisions.data(), nn,
                              skip)) {
    return false;
  }
  auto it_x = sx.env.begin();
  auto it_y = sy.env.begin();
  while (true) {
    while (it_x != sx.env.end() && message_receiver(*it_x) == j) ++it_x;
    while (it_y != sy.env.end() && message_receiver(*it_y) == j) ++it_y;
    if (it_x == sx.env.end() || it_y == sy.env.end()) break;
    if (*it_x != *it_y) return false;
    ++it_x;
    ++it_y;
  }
  while (it_x != sx.env.end() && message_receiver(*it_x) == j) ++it_x;
  while (it_y != sy.env.end() && message_receiver(*it_y) == j) ++it_y;
  return it_x == sx.env.end() && it_y == sy.env.end();
}

void MsgPassSyncModel::fingerprint_row_into(StateId x,
                                            std::uint64_t* out) const {
  // Mailbox masking makes the env hash j-dependent; batch the row per
  // erased coordinate (see MsgPassModel::fingerprint_row_into).
  const StateRef s = state(x);
  for (ProcessId j = 0; j < n(); ++j) {
    out[static_cast<std::size_t>(j)] = mailbox_masked_fingerprint(s, n(), j);
  }
}

std::string MsgPassSyncModel::env_to_string(StateId x) const {
  return transit_env_to_string(views(), state(x));
}

bool MsgPassSyncModel::env_well_formed(std::span<const std::int64_t> env,
                                       std::uint64_t views_end) const {
  return transit_env_well_formed(env, n(), views_end);
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
