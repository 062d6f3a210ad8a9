// The LayeredModel interface: a model of computation presented through a
// layering, exactly in the sense of Section 4 of the paper.
//
// A concrete model implements compute_layer(x) = S(x), the set of states
// reachable from x by one legal environment action of the layering. The
// analysis engine (valence, connectivity, bivalent-run construction) works
// against this interface only, which is what makes the paper's
// model-independent analysis executable: the same engine code derives the
// mobile-failure impossibility, the FLP-style asynchronous impossibilities
// and the synchronous t+1 lower bound.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/decision_rule.hpp"
#include "core/state.hpp"
#include "core/sym.hpp"
#include "core/types.hpp"
#include "core/view.hpp"
#include "util/process_set.hpp"

namespace lacon {

class LayeredModel {
 public:
  // `rule` must outlive the model. `initial_inputs` lists the allowed input
  // assignments (one Value per process); when empty, defaults to all binary
  // assignments, i.e. the paper's Con_0.
  LayeredModel(int n, const DecisionRule& rule,
               std::vector<std::vector<Value>> initial_inputs = {});
  virtual ~LayeredModel();

  LayeredModel(const LayeredModel&) = delete;
  LayeredModel& operator=(const LayeredModel&) = delete;

  int n() const noexcept { return n_; }
  virtual std::string name() const = 0;

  // The maximum number of processes that can be faulty in a run of the
  // (sub)model: 1 for the 1-resilient asynchronous layerings and for M^mf
  // (only one process can be silenced forever), t for the synchronous
  // t-resilient model. Used by the generalized-valence engine of Section 7.
  virtual int max_faulty() const { return 1; }

  // The initial states (Con_0, or D_0 for a general decision problem).
  // Thread-safe (built once under a flag).
  const std::vector<StateId>& initial_states();

  // S(x): the layer of x, deduplicated, in a deterministic order. Cached in
  // a per-state atomic slot: a hit is one lock-free load, and a computed
  // layer is published by CAS. Racing computations of the same layer (from
  // connections sharing a session) are idempotent because interning is
  // content-addressed; the first published vector wins. The returned
  // reference stays valid for the model's lifetime.
  const std::vector<StateId>& layer(StateId x);

  // The processes failed at x (faulty in *every* run through x). The three
  // asynchronous-flavoured models display no finite failure, so their
  // override is the empty default; the t-resilient synchronous model records
  // failures in the environment state.
  virtual ProcessSet failed_at(StateId x) const;

  StateRef state(StateId id) const noexcept { return arena_.state(id); }
  ViewArena& views() noexcept { return views_; }
  const ViewArena& views() const noexcept { return views_; }
  const DecisionRule& rule() const noexcept { return *rule_; }

  // Every id below each count can be read while other threads intern. A
  // reader that walks both arenas (snapshot save, log append) reads
  // num_states() first: a state is published after the views it holds, so
  // every view a counted state references is counted too.
  std::size_t num_states() const noexcept { return arena_.size(); }
  std::size_t num_views() const noexcept { return views_.size(); }

  // Approximate bytes held by the state arena and the view DAG combined,
  // a deterministic function of the interned content.
  std::size_t memory_footprint() const noexcept {
    return arena_.approx_bytes() + views_.approx_bytes();
  }

  // True if x and y agree modulo j (environment and all local states except
  // j's are equal). Virtual because a model may attribute parts of the
  // environment encoding to individual processes: the asynchronous
  // message-passing model treats the channel *into* process j (j's mailbox)
  // as part of j's local state, which is what makes the permutation
  // layering's similarity claims of Section 5.1 come out as the paper
  // asserts.
  virtual bool agree_modulo(StateId x, StateId y, ProcessId j) const {
    return lacon::agree_modulo(state(x), state(y), j);
  }

  // The erase-one fingerprint row of x: out[j] is a 64-bit hash of exactly
  // the material agree_modulo compares — the environment plus every process
  // local state except j's. Soundness contract (the similarity index relies
  // on it): whenever agree_modulo(x, y, j) holds, the rows of x and y agree
  // at j; otherwise the index silently drops edges. The base implementation
  // hashes the env prefix once ("simfip"-seeded hash_range) and folds every
  // locals/decisions lane into all n-1 non-erased entries in one pass over
  // the state (simd::fingerprint_lanes). A model overriding agree_modulo to
  // attribute environment words to process j (the message-passing mailbox
  // reading) must override this too and mask the same words.
  virtual void fingerprint_row_into(StateId x, std::uint64_t* out) const;

  // --- Snapshot hooks (lacon::store, store/snapshot.hpp) ------------------
  //
  // The store serializes the interned space through the public read API
  // (state()/views().node()) and replays it through the hooks below, in
  // stored-id order into a freshly-constructed model, so every restored
  // object receives exactly its stored id and later re-interning of the
  // same content hits the rebuilt hash-consing index.

  // Replays one interned state read back by the store; counts into
  // "arena.state_restored" instead of the miss counters. See
  // StateArena::restore for the contract on `s` and `hash`.
  StateId restore_state(const StateRef& s, std::uint64_t hash);

  // True when `env` is an environment this model can hold at its n, with
  // every view id it names below `views_end` (FORMATS.md §1.3). The store's
  // record decoder asks this of every state it reads, so a crafted register
  // or message never reaches compute_layer or the decision rule as a view
  // past the arena or a process index past n. The default accepts: it
  // serves the models that copy their env verbatim and read nothing out of
  // it (mobile, sync, IIS).
  virtual bool env_well_formed(std::span<const std::int64_t> /*env*/,
                               std::uint64_t /*views_end*/) const {
    return true;
  }

  // The memoized erase-one fingerprint row of x (fingerprint_row_into).
  // Rows are published once per state in a lock-free slot (racing
  // computations are idempotent — the first published row wins, losers
  // free theirs); the similarity index reads rows instead of rehashing
  // each sweep, and the store serializes published rows so a warm start
  // skips the hashing phase. Deliberately NOT part of memory_footprint():
  // rows appear in sweep order, which is scheduling-dependent, and guard
  // byte accounting must not be.
  const std::uint64_t* fingerprint_row(StateId x);

  // The row for x if one was already published, nullptr otherwise (the
  // store's save-side iteration; never computes).
  const std::uint64_t* cached_fingerprint_row(StateId x) const;

  // Publishes a row loaded from a snapshot (copies `row`, n entries;
  // keeps an existing row if already published).
  void restore_fingerprint_row(StateId x, const std::uint64_t* row);

  // The layer cache as (state, successors) entries, sorted by state id.
  // Lock-free: layers published concurrently may or may not appear.
  std::vector<std::pair<StateId, std::vector<StateId>>> export_layer_cache();

  // Replays cached layers from a snapshot. Entries whose key is already
  // cached keep the existing vector (they are equal by construction).
  void import_layer_cache(
      std::vector<std::pair<StateId, std::vector<StateId>>> entries);
  // ------------------------------------------------------------------------

  // --- Unpersisted-entry queues (store/wal.hpp) ---------------------------
  //
  // A write-ahead log persists what the caches gained since its last round.
  // Once the log has fixed what is on disk (Wal::replay or Wal::reset_to
  // call begin_log_epoch), every layer-cache and fingerprint-row publish
  // also queues its state id under the queues' one mutex, and every engine
  // over this model queues its memo inserts. Imports (import_layer_cache,
  // restore_fingerprint_row) queue nothing. A model no log drains
  // (lacon_check, a WAL-off daemon) never records and pays one branch per
  // insert.

  // 0 until the first begin_log_epoch; bumped by every later one.
  std::uint64_t log_epoch() const noexcept { return log_epoch_.load(); }
  bool records_unpersisted() const noexcept { return log_epoch() != 0; }

  // Starts a new log epoch: what is on disk now holds the first `num_states`
  // states and the cache entries a snapshot of them holds. Queues every
  // cached layer entry and fingerprint row that such a snapshot lacks (an
  // entry at or past `num_states`, or a layer reaching past it); entries
  // already queued stay queued.
  void begin_log_epoch(std::uint64_t num_states);

  struct UnpersistedCaches {
    std::vector<std::pair<StateId, std::vector<StateId>>> layers;
    std::vector<StateId> fingerprint_rows;
    bool empty() const noexcept {
      return layers.empty() && fingerprint_rows.empty();
    }
  };

  // Removes and returns the queued entries that lie wholly below `bound`,
  // each once with its current content, sorted by state id. Entries that
  // reference a state at or past `bound` stay queued.
  UnpersistedCaches drain_unpersisted(std::uint64_t bound);

  // Queues drained entries again: a log write that failed keeps its delta.
  void requeue(const UnpersistedCaches& drained);
  // ------------------------------------------------------------------------

  // --- Symmetry hooks (core/sym.hpp, DESIGN.md §15) -----------------------

  // How this model's layering behaves under process relabeling. A model may
  // declare kFull ONLY if (a) compute_layer commutes with every permutation
  // π (π·S(x) = S(π·x) as sets) and (b) its decision rule is equivariant
  // (decides from the *values* in a view, never from process indices — all
  // shipped rules qualify). The quotient additionally requires the initial
  // input assignments to be permutation-closed; that part is checked at
  // runtime, so a kFull model constructed with asymmetric inputs silently
  // degrades to the trivial quotient rather than producing wrong verdicts.
  virtual sym::SymmetryClass symmetry() const {
    return sym::SymmetryClass::kTrivial;
  }

  // Appends a comparison key of this state's environment as seen through
  // relabeling `rel` — a function of the *relabeled* env content, never of
  // raw ViewIds. The default copies the words verbatim, which is correct
  // exactly when the environment is process-independent and id-free (empty
  // envs, failure counters, ...). A model whose environment is indexed by
  // process or embeds interned ViewIds MUST override this (and, if it also
  // declares kFull, sym_permute_env below): snapshot registers and
  // in-transit messages both do. Only the quotient calls it, so a kTrivial
  // model never needs the override.
  virtual void sym_env_key(const StateRef& s, sym::Relabeling& rel,
                           std::vector<std::uint64_t>* out) const;

  // The environment of π·s for the relabeling `rel`: every process index
  // remapped through rel.new_of, every embedded view rewritten through
  // rel.rewrite, re-canonicalized to the model's own env ordering. The
  // default returns the words verbatim (valid for process-independent
  // envs). Only called when the quotient is active, i.e. on kFull models.
  virtual std::vector<std::int64_t> sym_permute_env(
      const StateRef& s, sym::Relabeling& rel) const;

  // True when states intern through the symmetry quotient: LACON_SYMMETRY
  // resolves to on (or a sym::ScopedSymmetry forces it), symmetry() is
  // kFull, the initial inputs are permutation-closed and n <= 15. Latched
  // on first use, so one model never mixes quotiented and raw interning;
  // the first call that finds the quotient active builds the model's
  // Canonicalizer.
  bool sym_quotient_active();

  // |orbit(x)| — the number of distinct global states x stands for. 1
  // whenever the quotient is inactive. Orbit-weighted sums over canonical
  // representatives reproduce the unquotiented counts exactly (layer sizes,
  // valence tallies); computed lazily so warm-started arenas pay only for
  // states an analysis actually touches.
  std::uint64_t orbit_weight(StateId x);

  // All member states of x's orbit (x included), sorted by id, interned
  // raw (bypassing canonicalization). Identity {x} when the quotient is
  // inactive. Diameter/similarity queries unfold their frontier through
  // this so connectivity verdicts match the unquotiented engine verbatim.
  // Closure under adjacent transpositions, so the cost is
  // O(orbit · n · rewrite) rather than n!.
  std::vector<StateId> unfold_orbit(StateId x);

  // The intern path compute_layer uses: folds `s` in place onto its orbit
  // representative whenever the quotient is active, records the orbit
  // weight for the interned id, and interns `s` as a StateRef (copied only
  // when new). Public so tests can intern externally-built states through
  // the same path.
  StateId intern_canonical(GlobalState& s);
  // ------------------------------------------------------------------------

  // Canonical, id-free rendering of x's environment component. The default
  // prints the raw words — canonical only for models whose environment
  // holds plain scalars. Models whose environment embeds interned ViewIds
  // (shared-memory/snapshot registers, in-transit messages) override this
  // to render view *terms*: raw ids depend on intern order (connections
  // race to intern first), so output compared across runs must go
  // through this, never through s.env directly.
  virtual std::string env_to_string(StateId x) const;

 protected:
  // Computes S(x); implementations should return successors in a
  // deterministic order and need not deduplicate (the base class does).
  // Each builds its successors in one SuccessorBuilder (core/state.hpp) and
  // interns them through intern_canonical, so the symmetry quotient applies
  // transparently to every model.
  virtual std::vector<StateId> compute_layer(StateId x) = 0;

  // Environment component of initial states; default: empty (constant env).
  virtual std::vector<std::int64_t> initial_env() const { return {}; }

  // Applies the decision rule to process i after it obtained `new_view`.
  // Respects the write-once semantics of d_i.
  Value updated_decision(ProcessId i, Value current, ViewId new_view);

 private:
  // The published layer of x, nullptr until layer() or an import sets it.
  const std::vector<StateId>* cached_layer(StateId x) const;

  // True when every initial input assignment stays an initial input under
  // any permutation of the processes (checked via adjacent transpositions,
  // which generate S_n).
  bool inputs_permutation_closed() const;

  int n_;
  const DecisionRule* rule_;
  std::vector<std::vector<Value>> initial_inputs_;
  ViewArena views_;
  StateArena arena_;
  std::vector<StateId> initial_states_;
  std::once_flag initial_once_;
  // The state ids of unpersisted layer entries and fingerprint rows.
  std::mutex unpersisted_mu_;
  std::vector<StateId> unpersisted_layers_;  // guarded by unpersisted_mu_
  std::vector<StateId> unpersisted_rows_;    // guarded by unpersisted_mu_
  // Per-state layers; nullptr until published.
  runtime::ConcurrentSlotVector<std::atomic<const std::vector<StateId>*>>
      layer_memo_;
  // Per-state fingerprint rows (n hashes each); nullptr until published.
  runtime::ConcurrentSlotVector<std::atomic<const std::uint64_t*>> fp_memo_;
  std::atomic<std::uint64_t> log_epoch_{0};
  // --- symmetry quotient (DESIGN.md §15) ---
  // Null unless the quotient is active; set inside sym_once_.
  std::unique_ptr<sym::Canonicalizer> canon_;
  std::once_flag sym_once_;
  bool sym_active_ = false;
  // |orbit| per canonical state; 0 = not yet computed (slots value-init).
  runtime::ConcurrentSlotVector<std::atomic<std::uint64_t>> orbit_weights_;
  runtime::Counter* sym_folds_;
  // Times layer()'s miss path: compute_layer, dedup and publish.
  runtime::Timer* layer_time_;
};

// All binary input assignments for n processes (the paper's Con_0 inputs).
std::vector<std::vector<Value>> all_binary_inputs(int n);

}  // namespace lacon
