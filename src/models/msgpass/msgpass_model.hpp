// The asynchronous message-passing model with the permutation layering S^per
// (Section 5.1) — the paper's message-passing analogue of immediate-snapshot
// executions.
//
// A local phase of process i first delivers *all* outstanding messages
// addressed to i and then sends i's (full-information) message to every
// other process. A layer is driven by one environment action of three types:
//
//   [p_1, ..., p_n]                      every process does a phase, in order
//   [p_1, ..., p_{n-1}]                  one process skips the layer
//   [p_1, .., {p_k, p_{k+1}}, .., p_n]   two adjacent processes run
//                                        concurrently: both receive before
//                                        either sends
//
// Every S^per-run has all but at most one process acting infinitely often,
// so no process is failed at any finite state (no finite failure).
//
// Representation note. The environment state holds the multiset of messages
// in transit, encoded canonically (sorted by sender, receiver, payload).
// For the similarity relation, this model attributes the messages addressed
// to process j — j's mailbox — to j's local state: x and y agree modulo j
// when all other local states are equal AND the in-transit messages not
// addressed to j coincide. This is required for the paper's claims
//   x[..,p_k,p_{k+1},..] ~s x[..,{p_k,p_{k+1}},..] ~s x[..,p_{k+1},p_k,..]
// to hold: the two sides differ exactly in one process's view and in one
// undelivered message *addressed to that process*. Conversely
// x[p_1..p_n] and x[p_1..p_{n-1}] are *not* similar — p_n's unsent messages
// would sit in n-1 other mailboxes — which is precisely why the paper needs
// the valence-based diamond argument there.
#pragma once

#include "core/model.hpp"

namespace lacon {

// One scheduling group of a layer action: a single process, or an adjacent
// pair running concurrently.
struct SchedGroup {
  ProcessId a = 0;
  ProcessId b = -1;  // -1 for a singleton group

  bool pair() const noexcept { return b >= 0; }
};

using Schedule = std::vector<SchedGroup>;

// The base of both message-passing models (this one and MsgPassSyncModel,
// models/msgpass/msgpass_sync_model.hpp): the env is the sorted multiset of
// in-transit messages (pack_message), and the messages addressed to j, j's
// mailbox, belong to j's local state. The env hooks have one body here.
class TransitEnvModel : public LayeredModel {
 public:
  using LayeredModel::LayeredModel;

  // Every local state except j's is equal, and so are the in-transit
  // messages not addressed to j.
  bool agree_modulo(StateId x, StateId y, ProcessId j) const override;

  // out[j] hashes the in-transit messages not addressed to j, their count,
  // and every local state except j's: the material agree_modulo compares.
  void fingerprint_row_into(StateId x, std::uint64_t* out) const override;

  // The in-transit messages as "sender->receiver:<view term>", id-free.
  std::string env_to_string(StateId x) const override;

  // True when every word of `env` is a message pack_message could have made
  // for n processes: sender and receiver below n, the view below
  // `views_end`.
  bool env_well_formed(std::span<const std::int64_t> env,
                       std::uint64_t views_end) const override;
};

class MsgPassModel final : public TransitEnvModel {
 public:
  MsgPassModel(int n, const DecisionRule& rule,
               std::vector<std::vector<Value>> initial_inputs = {});

  std::string name() const override { return "AsyncMP/S^per"; }

  // The permutation layering's action set (full permutations, drop-one,
  // adjacent concurrent pairs) is closed under relabeling, so the full
  // symmetric group quotients out.
  sym::SymmetryClass symmetry() const override {
    return sym::SymmetryClass::kFull;
  }

  // Relabeling remaps every in-transit message's sender/receiver, rewrites
  // its payload view, and re-sorts the multiset into canonical order.
  void sym_env_key(const StateRef& s, sym::Relabeling& rel,
                   std::vector<std::uint64_t>* out) const override;
  std::vector<std::int64_t> sym_permute_env(
      const StateRef& s, sym::Relabeling& rel) const override;

  // Applies one layer action given as a schedule of groups. Exposed so the
  // tests can verify the paper's diamond identity
  //   x[p1..pn][p1..p_{n-1}] == x[p1..p_{n-1}][pn p1..p_{n-1}]
  // as interned-state equality.
  StateId apply_schedule(StateId x, const Schedule& schedule);

  // All layer actions for this model size (the three types above).
  const std::vector<Schedule>& schedules() const { return schedules_; }

 protected:
  std::vector<StateId> compute_layer(StateId x) override;

 private:
  // apply_schedule built in `b` (reused across a layer).
  StateId apply_schedule(SuccessorBuilder& b, StateId x,
                         const Schedule& schedule);

  std::vector<Schedule> schedules_;
};

// Moves every message addressed to i out of `transit` (the rest keep their
// order) into `obs`, as observations sorted by (source, view): one receive
// step of both message-passing models. `obs` is cleared first.
void take_mailbox(std::vector<std::int64_t>& transit, ProcessId i,
                  std::vector<Obs>& obs);

// Message encoding helpers (exposed for tests).
std::int64_t pack_message(ProcessId sender, ProcessId receiver, ViewId view);
ProcessId message_sender(std::int64_t packed);
ProcessId message_receiver(std::int64_t packed);
ViewId message_view(std::int64_t packed);

}  // namespace lacon
