#include "models/msgpass/msgpass_sync_model.hpp"

#include <algorithm>
#include <cassert>

#include "models/msgpass/msgpass_model.hpp"
#include "util/simd.hpp"

namespace lacon {
namespace {

// Collects and removes all messages addressed to i, returning canonical
// observations.
std::vector<Obs> take_mailbox(std::vector<std::int64_t>& transit,
                              ProcessId i) {
  std::vector<Obs> obs;
  std::vector<std::int64_t> rest;
  rest.reserve(transit.size());
  for (std::int64_t m : transit) {
    if (message_receiver(m) == i) {
      obs.push_back(Obs{message_sender(m), message_view(m)});
    } else {
      rest.push_back(m);
    }
  }
  transit = std::move(rest);
  std::sort(obs.begin(), obs.end(), [](const Obs& l, const Obs& r) {
    return l.source != r.source ? l.source < r.source : l.view < r.view;
  });
  return obs;
}

}  // namespace

MsgPassSyncModel::MsgPassSyncModel(
    int n, const DecisionRule& rule,
    std::vector<std::vector<Value>> initial_inputs)
    : LayeredModel(n, rule, std::move(initial_inputs)) {}

StateId MsgPassSyncModel::apply_timed(StateId x, ProcessId j, int k) {
  assert(j >= 0 && j < n());
  assert(k >= 0 && k <= n());
  const StateRef s = state(x);
  std::vector<std::int64_t> transit(s.env.begin(), s.env.end());
  std::vector<ViewId> locals(s.locals.begin(), s.locals.end());
  std::vector<Value> decisions(s.decisions.begin(), s.decisions.end());

  auto do_receive = [&](ProcessId i) {
    const ViewId view =
        views().extend(locals[static_cast<std::size_t>(i)],
                       take_mailbox(transit, i));
    locals[static_cast<std::size_t>(i)] = view;
    decisions[static_cast<std::size_t>(i)] =
        updated_decision(i, decisions[static_cast<std::size_t>(i)], view);
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
  GlobalState next;
  next.env = std::move(transit);
  next.locals = std::move(locals);
  next.decisions = std::move(decisions);
  return intern(std::move(next));
}

StateId MsgPassSyncModel::apply_absent(StateId x, ProcessId j) {
  assert(j >= 0 && j < n());
  const StateRef s = state(x);
  std::vector<std::int64_t> transit(s.env.begin(), s.env.end());
  std::vector<ViewId> locals(s.locals.begin(), s.locals.end());
  std::vector<Value> decisions(s.decisions.begin(), s.decisions.end());

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
    const ViewId view =
        views().extend(locals[static_cast<std::size_t>(i)],
                       take_mailbox(transit, i));
    locals[static_cast<std::size_t>(i)] = view;
    decisions[static_cast<std::size_t>(i)] =
        updated_decision(i, decisions[static_cast<std::size_t>(i)], view);
  }

  std::sort(transit.begin(), transit.end());
  GlobalState next;
  next.env = std::move(transit);
  next.locals = std::move(locals);
  next.decisions = std::move(decisions);
  return intern(std::move(next));
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
  for (ProcessId j = 0; j < n(); ++j) {
    for (int k = 0; k <= n(); ++k) {
      succ.push_back(apply_timed(x, j, k));
    }
    succ.push_back(apply_absent(x, j));
  }
  return succ;
}

}  // namespace lacon
