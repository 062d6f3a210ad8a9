#include "models/synchronous/sync_model.hpp"

#include <cassert>
#include <functional>

namespace lacon {

SyncModel::SyncModel(int n, int t, const DecisionRule& rule,
                     std::vector<std::vector<Value>> initial_inputs,
                     SyncLayering layering)
    : LayeredModel(n, rule, std::move(initial_inputs)),
      t_(t),
      layering_(layering) {
  assert(t >= 1 && t <= n - 2);
}

ProcessSet SyncModel::omission_evidence(ViewId view) const {
  {
    std::lock_guard<std::mutex> lock(evidence_mu_);
    auto it = evidence_cache_.find(view);
    if (it != evidence_cache_.end()) return ProcessSet(it->second);
  }
  // The model is non-const in spirit (caches layers) but view lookup is
  // read-only; const_cast keeps failed_at const as the interface requires.
  const ViewArena& arena = const_cast<SyncModel*>(this)->views();
  ProcessSet evidence;
  const ViewRef node = arena.node(view);
  for (const Obs& o : node.obs) {
    if (o.view == kNoView) evidence.insert(o.source);
  }
  // Compute outside the lock: the recursion below re-enters this function,
  // and racing recomputation is idempotent (the result is a pure function
  // of the view).
  if (node.prev != kNoView) {
    evidence = evidence | omission_evidence(node.prev);
  }
  std::lock_guard<std::mutex> lock(evidence_mu_);
  evidence_cache_.emplace(view, evidence.mask());
  return evidence;
}

ProcessSet SyncModel::failed_at(StateId x) const {
  const StateRef s = state(x);
  ProcessSet failed;
  for (ViewId v : s.locals) failed = failed | omission_evidence(v);
  return failed;
}

StateId SyncModel::apply(StateId x, ProcessId j, int k) {
  assert(j >= 0 && j < n());
  assert(k >= 0 && k <= n());
  std::vector<int> losses(static_cast<std::size_t>(n()), 0);
  if (k >= 1) losses[static_cast<std::size_t>(j)] = k;
  return apply_multi(x, losses);
}

StateId SyncModel::apply_multi(StateId x, const std::vector<int>& losses) {
  SuccessorBuilder b;
  return apply_multi(b, x, failed_at(x), losses);
}

StateId SyncModel::apply_multi(SuccessorBuilder& b, StateId x,
                               ProcessSet failed,
                               const std::vector<int>& losses) {
  assert(static_cast<int>(losses.size()) == n());
  assert(failed == failed_at(x));
  const StateRef s = state(x);
#ifndef NDEBUG
  int newly = 0;
  for (ProcessId j = 0; j < n(); ++j) {
    if (losses[static_cast<std::size_t>(j)] >= 1) {
      assert(!failed.contains(j));
      ++newly;
    }
  }
  assert(failed.size() + newly <= t_);
#endif

  // Env constant; the failure record lives in the views.
  b.start(s);
  std::vector<Obs>& obs = b.obs[0];
  for (ProcessId i = 0; i < n(); ++i) {
    const auto iu = static_cast<std::size_t>(i);
    obs.clear();
    for (ProcessId sender = 0; sender < n(); ++sender) {
      if (sender == i) continue;
      const bool lost = failed.contains(sender) ||
                        (i < losses[static_cast<std::size_t>(sender)]);
      obs.push_back(
          Obs{sender,
              lost ? kNoView : s.locals[static_cast<std::size_t>(sender)]});
    }
    const ViewId view = views().extend(s.locals[iu], obs);
    b.next.locals[iu] = view;
    b.next.decisions[iu] = updated_decision(i, s.decisions[iu], view);
  }
  return intern_canonical(b.next);
}

std::vector<StateId> SyncModel::one_per_round_layer(StateId x) {
  const ProcessSet failed = failed_at(x);
  SuccessorBuilder b;
  std::vector<int> losses(static_cast<std::size_t>(n()), 0);
  std::vector<StateId> succ;
  // The failure-free round is always available (and is the unique successor
  // once t processes have failed).
  succ.push_back(apply_multi(b, x, failed, losses));
  if (failed.size() < t_) {
    for (ProcessId j = 0; j < n(); ++j) {
      if (failed.contains(j)) continue;
      for (int k = 1; k <= n(); ++k) {
        losses[static_cast<std::size_t>(j)] = k;
        succ.push_back(apply_multi(b, x, failed, losses));
      }
      losses[static_cast<std::size_t>(j)] = 0;
    }
  }
  return succ;
}

std::vector<StateId> SyncModel::multi_failure_layer(StateId x) {
  const ProcessSet failed = failed_at(x);
  const int budget = t_ - failed.size();
  // Enumerate every assignment of a prefix-loss k in 0..n to each non-failed
  // process, with at most `budget` non-zero entries.
  SuccessorBuilder b;
  std::vector<StateId> succ;
  std::vector<int> losses(static_cast<std::size_t>(n()), 0);
  std::vector<ProcessId> live;
  for (ProcessId j = 0; j < n(); ++j) {
    if (!failed.contains(j)) live.push_back(j);
  }
  std::function<void(std::size_t, int)> recurse = [&](std::size_t idx,
                                                      int used) {
    if (idx == live.size()) {
      succ.push_back(apply_multi(b, x, failed, losses));
      return;
    }
    recurse(idx + 1, used);  // this process does not newly fail
    if (used < budget) {
      for (int k = 1; k <= n(); ++k) {
        losses[static_cast<std::size_t>(live[idx])] = k;
        recurse(idx + 1, used + 1);
      }
      losses[static_cast<std::size_t>(live[idx])] = 0;
    }
  };
  recurse(0, 0);
  return succ;
}

std::vector<StateId> SyncModel::compute_layer(StateId x) {
  return layering_ == SyncLayering::kOnePerRound ? one_per_round_layer(x)
                                                 : multi_failure_layer(x);
}

}  // namespace lacon
