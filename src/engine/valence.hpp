// Valence computation (Section 3 of the paper).
//
// A state x is v-valent when some execution of the (sub)model extending x has
// a nonfaulty process deciding v. Because all our models satisfy Fault
// Independence constructively — from any state there is an extension in which
// only already-failed processes fail — a process that is non-failed at a
// state and has decided v witnesses v-valence.
//
// The paper quantifies over infinite runs; the engine explores the layered
// successor DAG up to a horizon and tracks *exactness* of the computed
// valence set under one of two criteria:
//
//  * kQuiescence — every explored branch reached a state where all non-failed
//    processes have decided (or bivalence, which is maximal). This is sound
//    and complete for models in which every process acts in every layer
//    (M^mf, the t-resilient synchronous model) running protocols that decide
//    within the horizon.
//
//  * kConvergence — the valence sets computed with lookahead H and H+1
//    coincide. The asynchronous layerings contain "sleeper" branches (the
//    (j,A) shared-memory action, the drop-last permutation action) along
//    which one process never acts, so strict quiescence is unreachable; the
//    sleeper is faulty in those runs and owes no decision. Horizon
//    convergence is the standard finite-horizon discharge of the infinite-run
//    quantifier: the valence set is monotone in the horizon, and a fixed
//    point across consecutive horizons is reported as exact.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <vector>

#include "core/model.hpp"
#include "relation/graph.hpp"
#include "runtime/guard.hpp"
#include "runtime/slot_vector.hpp"

namespace lacon {

struct ValenceInfo {
  bool v0 = false;
  bool v1 = false;
  bool exact = false;

  bool bivalent() const noexcept { return v0 && v1; }
  bool univalent() const noexcept { return v0 != v1; }
  // The unique valence of a univalent state.
  Value value() const noexcept { return v1 ? 1 : 0; }

  bool same_set(const ValenceInfo& o) const noexcept {
    return v0 == o.v0 && v1 == o.v1;
  }
};

enum class Exactness { kQuiescence, kConvergence };

class ValenceEngine {
 public:
  // A memo word's lookahead field holds kMaxHorizon + 1 (the deep memo).
  static constexpr int kMaxHorizon = 32;

  // The valences a state witnesses by itself, with no lookahead.
  using Witness = std::function<ValenceInfo(StateId)>;

  // `horizon`: number of layers explored below a state when computing its
  // valence, in [0, kMaxHorizon] (std::invalid_argument otherwise). For a
  // protocol whose decisions complete within r rounds, any horizon >= r
  // yields exact valences under kQuiescence in the synchronous models.
  //
  // `witness`: empty for Section 3's valence, witnessed by the decided
  // values (decided_valences). For Section 7's valence w.r.t. a covering,
  // the covering is the witness the engine is built with (covering_witness,
  // topology/covering.hpp).
  ValenceEngine(LayeredModel& model, int horizon,
                Exactness mode = Exactness::kQuiescence,
                Witness witness = {});

  ValenceInfo valence(StateId x);

  // Classifies every state of X, in X order. The memo is shared with every
  // other caller of this engine, concurrent connections included (their
  // explored subtrees overlap heavily), which is safe: each memo entry is a
  // pure function of its state and lookahead. Exact results never depend on
  // what else ran; inexact (budget-truncated) ones can witness more
  // valences through a warmer memo, exactly as a different call order
  // already could.
  std::vector<ValenceInfo> classify_all(const std::vector<StateId>& X);

  // Guarded classification: the guard is probed before each state; a trip
  // truncates to a valid prefix of X (value.size() == completed <= X.size(),
  // entry i still the full valence of X[i]). The unguarded overload pads a
  // truncated result back to X.size() with default (inexact, no-valence)
  // entries so positional consumers like valence_graph stay index-aligned.
  guard::Partial<std::vector<ValenceInfo>> classify_all(
      const std::vector<StateId>& X, const guard::Guard& g);

  // x ~v y : both are w-valent for some w (Definition 3.1).
  bool shared_valence(StateId x, StateId y);

  // The graph (X, ~v).
  Graph valence_graph(const std::vector<StateId>& X);
  bool valence_connected(const std::vector<StateId>& X);

  // Constructive Lemma 3.4: if X is valence connected and contains both a
  // 0-valent and a 1-valent state, a bivalent member exists; returns the
  // first one found (in X order), or nullopt.
  std::optional<StateId> find_bivalent(const std::vector<StateId>& X);

  LayeredModel& model() noexcept { return model_; }
  int horizon() const noexcept { return horizon_; }
  Exactness mode() const noexcept { return mode_; }
  std::size_t evaluations() const noexcept {
    return evaluations_.load(std::memory_order_relaxed);
  }

  // One exported memo entry (lacon::store, store/snapshot.hpp). `lookahead`
  // is the budget the entry was computed with; `deep` marks entries of the
  // horizon+1 memo that kConvergence mode maintains.
  struct MemoEntry {
    StateId x = 0;
    std::int32_t lookahead = 0;
    bool v0 = false;
    bool v1 = false;
    bool exact = false;
    bool deep = false;
  };

  // Every memo entry, in (deep, x) order. A scan of the memo's words:
  // entries memoized concurrently may or may not appear.
  std::vector<MemoEntry> export_memo();

  // Replays entries exported from an engine with the same model content,
  // horizon and mode; each lookahead lies in [0, horizon + deep]. Entries
  // merge under the usual strongest-wins rule (memoize()), so importing
  // into a warm engine is safe. Queues nothing.
  void import_memo(const std::vector<MemoEntry>& entries);

  // --- Unpersisted-entry queue (store/wal.hpp) ---------------------------
  //
  // While the model records (LayeredModel::begin_log_epoch), every memo
  // insert and every strengthening by memoize()'s strongest-wins rule
  // queues the state under the memo's queue mutex, after the CAS that
  // changed the word.

  // Removes and returns the queued entries whose state lies below `bound`,
  // each once with its current value, sorted by (deep, x); the rest stay
  // queued. An engine the log has not seen since the model's last log epoch
  // began first queues its whole memo: the log that held it was reset.
  std::vector<MemoEntry> drain_memo(std::uint64_t bound);

  // Queues drained entries again: a log write that failed keeps its delta.
  void requeue_memo(const std::vector<MemoEntry>& entries);

  // Joins the model's current log epoch after a snapshot of this memo
  // covering `num_states` states was saved (or the log was replayed into
  // it): queues every entry at or past `num_states`.
  void sync_memo(std::uint64_t num_states);

 private:
  // The memo is the engine's one valence cache. Interning is
  // content-addressed, so within one model a StateId already is a content
  // key, and snapshot load and WAL replay restore the same ids: that is how
  // a memo survives a restart. It is one 32-bit word per StateId (state
  // ids are dense): present,
  // exact, v0, v1 and the lookahead, packed so a lookup is one lock-free
  // load and a merge one CAS loop. Only the unpersisted-entry queue takes a
  // lock, and only when a word changed while the model records.
  struct Memo {
    runtime::ConcurrentSlotVector<std::atomic<std::uint32_t>> words;
    std::mutex mu;
    std::vector<StateId> unpersisted;  // guarded by mu
  };
  // Queues x as unpersisted in `memo`.
  static void queue(Memo& memo, StateId x);

  ValenceInfo compute(Memo& memo, StateId x, int budget);
  // Stores (budget, info) for x unless the memo already holds a stronger
  // entry (deeper lookahead, or bivalent which is maximal), and queues x
  // when the model records and the stored word changed.
  void memoize(Memo& memo, StateId x, int budget, const ValenceInfo& info);
  // memoize()'s strongest-wins merge into one word; true when it changed.
  static bool merge(std::atomic<std::uint32_t>& word, int budget,
                    const ValenceInfo& info);
  // Appends the entries of `memo` at ids from `from` on to `out`.
  void scan(const Memo& memo, bool deep, std::uint64_t from,
            std::vector<MemoEntry>* out) const;
  // Queues every entry at or past `bound`, in both memos.
  void queue_from(std::uint64_t bound);

  LayeredModel& model_;
  int horizon_;
  Exactness mode_;
  Witness witness_;  // empty: decided_valences
  Memo memo_;       // lookahead = horizon_
  Memo memo_deep_;  // lookahead = horizon_ + 1 (kConvergence only)
  std::atomic<std::size_t> evaluations_{0};
  // The model's log epoch this memo's queue is current with; touched only
  // by the log's (externally serialized) calls after construction.
  std::uint64_t log_epoch_;
};

// True when every process that is non-failed at x has decided (the run tree
// below x can no longer change the set of witnessed valences).
bool quiescent(LayeredModel& model, StateId x);

// The decided values among processes non-failed at x.
ValenceInfo decided_valences(LayeredModel& model, StateId x);

}  // namespace lacon
