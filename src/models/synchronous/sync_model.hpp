// The t-resilient synchronous message-passing model of Section 6, with the
// layering S^t.
//
// Failure semantics (as assumed by the paper): in the first round in which a
// process fails the environment may block an arbitrary subset of its
// messages — S^t restricts that subset to a prefix [k]; from the next round
// on the process is silenced forever. A silenced process keeps receiving and
// updating its local state (sending-omission semantics) but its messages
// never arrive.
//
//   S^t(x) = S1-style { x(j,[k]) }                  if fewer than t failed,
//            { the unique failure-free successor }   otherwise.
//
// Representation note. The paper assumes "the environment's local state
// keeps track of the processes that have failed". In the S^t submodel that
// record is *derivable* from the process local states: an omission by j in
// round r is visible as a missing message in some receiver's view, and
// S^t-runs silence j forever from then on, so j is faulty in every run
// through such a state — exactly the paper's "failed at x". We therefore
// keep the environment component constant and compute failed_at from the
// views. Storing a separate env copy would only refine state equality and
// destroy the similarity connectivity of layers that Lemmas 6.1/6.2 rely on
// (e.g. x(j,[0]) = x(j',[0]) and x(j,[0]) ~s x(j,[1]) would both fail).
//
// Once t processes have failed the extension from a state is unique, which
// is why such states are univalent (proof of Lemma 6.2).
#pragma once

#include <mutex>
#include <unordered_map>

#include "core/model.hpp"

namespace lacon {

// Which successor function the model exposes as its layering.
//
//  * kOnePerRound — the paper's S^t: at most one process newly fails per
//    layer. This is the layering behind the t+1 lower bound (Section 6).
//  * kMultiFailure — the full synchronous round: any set of processes may
//    newly fail (each losing a prefix [k] of its messages) as long as the
//    total stays within t. The diameter analysis of Lemma 7.6/Theorem 7.7
//    needs this one: its crash-display premise silences a process in *both*
//    runs of a pair whose failure records already differ, i.e. two new
//    failures in one round — under literal S^t the round-m state sets
//    disconnect for m >= 2 (measured in bench_t5_diameter), under the full
//    round successor they stay similarity connected as the paper asserts.
enum class SyncLayering { kOnePerRound, kMultiFailure };

class SyncModel final : public LayeredModel {
 public:
  // Requires 1 <= t <= n-2 (so n >= 3), as in Section 6.
  SyncModel(int n, int t, const DecisionRule& rule,
            std::vector<std::vector<Value>> initial_inputs = {},
            SyncLayering layering = SyncLayering::kOnePerRound);

  std::string name() const override {
    return "Sync(t=" + std::to_string(t_) + ")/S^t";
  }

  int t() const noexcept { return t_; }
  int max_faulty() const override { return t_; }

  // Deliberately kTrivial: S^t loses message *prefixes* [k], an
  // index-dependent action set that relabeling does not preserve.
  sym::SymmetryClass symmetry() const override {
    return sym::SymmetryClass::kTrivial;
  }

  ProcessSet failed_at(StateId x) const override;

  // One synchronous round from x in which, additionally to the silencing of
  // already-failed processes, the messages of j to 0..k-1 are lost (and j
  // thereby becomes failed when k >= 1). Pass k = 0 for a failure-free
  // round. Requires that j is non-failed at x when k >= 1.
  StateId apply(StateId x, ProcessId j, int k);

  // One synchronous round in which every process j with losses[j] = k >= 1
  // newly fails, losing its messages to 0..k-1 (in addition to the
  // silencing of already-failed processes). Generalizes apply().
  StateId apply_multi(StateId x, const std::vector<int>& losses);

 protected:
  std::vector<StateId> compute_layer(StateId x) override;

 private:
  // The senders whose omissions are recorded anywhere in this view's
  // history (its own chain of phases). Memoized; safe to call from
  // concurrent compute_layer() invocations.
  ProcessSet omission_evidence(ViewId view) const;

  // apply_multi built in `b` (reused across a layer), `failed` being
  // failed_at(x).
  StateId apply_multi(SuccessorBuilder& b, StateId x, ProcessSet failed,
                      const std::vector<int>& losses);

  std::vector<StateId> one_per_round_layer(StateId x);
  std::vector<StateId> multi_failure_layer(StateId x);

  int t_;
  SyncLayering layering_;
  mutable std::mutex evidence_mu_;
  mutable std::unordered_map<ViewId, std::uint64_t> evidence_cache_;
};

}  // namespace lacon
