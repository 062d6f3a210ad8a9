// Hash-consed full-information view DAG.
//
// The paper's impossibility analysis restricts only the environment's actions
// ("we are making no simplifying assumptions regarding the form of the
// protocols used; only the actions of the environment, or the scheduler, are
// being restricted" — Section 5). Every deterministic protocol factors
// through the full-information protocol, whose local state after a phase is
// the pair (previous local state, observations made in the phase). We
// represent such local states as nodes of a DAG interned in a ViewArena, so
// that local-state equality — the basis of the paper's "agree modulo j"
// relation — is integer equality.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "core/hash_index.hpp"
#include "core/types.hpp"
#include "runtime/slot_vector.hpp"
#include "util/hash.hpp"

namespace lacon::runtime {
class Counter;
}  // namespace lacon::runtime

namespace lacon {

// One observation made during a local phase: the full-information content
// received from `source` (a process for messages, a register index for
// shared-memory reads). `view == kNoView` records an observed *absence*
// (e.g. a missing message slot in a synchronous round).
struct Obs {
  std::int32_t source = 0;
  ViewId view = kNoView;

  bool operator==(const Obs&) const = default;
};

// A node of the view DAG: the local state of `owner` after `round` completed
// local phases.
struct ViewNode {
  ProcessId owner = 0;
  std::int32_t round = 0;     // number of completed local phases
  Value input = 0;            // owner's initial input value
  ViewId prev = kNoView;      // local state before this phase; kNoView iff round == 0
  std::vector<Obs> obs;       // observations made during this phase

  bool operator==(const ViewNode&) const = default;
};

// Interns ViewNodes; equal nodes receive equal ViewIds.
//
// Thread-safety: initial()/extend()/known_inputs() may be called
// concurrently (layer computations of connections sharing a session do).
// One mutex guards the index and the id counter; interning is
// content-addressed, so racing interns of equal nodes agree on the id. An
// intern writes the node, then publishes its id with a release store of the
// count, so node(), size() and to_string() are lock-free reads, safe for
// any id below size() or received through an intern call or another
// happens-before edge. The known_inputs memo is a per-node atomic slot (no
// lock at all), so concurrent valence classifications never serialize on
// it.
class ViewArena {
 public:
  explicit ViewArena(int n);
  ~ViewArena();

  int n() const noexcept { return n_; }

  // The initial (round-0) view of a process with a given input.
  ViewId initial(ProcessId owner, Value input);

  // The view after one more local phase extending `prev` with observations
  // `obs`. Callers must pass observations in a canonical (sorted-by-source)
  // order so that equal views intern to equal ids.
  ViewId extend(ViewId prev, std::vector<Obs> obs);

  // Re-interns a node read back by the store (store/codec.hpp). Identical
  // to the private intern path except that a fresh insertion bumps
  // "arena.view_restored" instead of the miss counter; replay happens in
  // stored-id order, so the returned id equals the stored one. `hash` must
  // be content_hash(node): the loaders compute it while decoding.
  ViewId restore(ViewNode node, std::uint64_t hash);

  const ViewNode& node(ViewId id) const {
    return nodes_[static_cast<std::size_t>(id)];
  }
  // The ids published so far; each one's node is readable.
  std::size_t size() const noexcept {
    return next_id_.load(std::memory_order_acquire);
  }

  // Approximate heap footprint of the interned view DAG (see
  // StateArena::approx_bytes — likewise a deterministic function of the
  // interned content only). Monotone, relaxed reads.
  std::size_t approx_bytes() const noexcept {
    return approx_bytes_.load(std::memory_order_relaxed);
  }

  // The inputs this view knows about: entry j is process j's input if it is
  // determined by the view, kUnknownInput otherwise. Memoized per node in a
  // lock-free atomic slot: racing computations are idempotent, the first
  // published vector wins and losers discard theirs.
  const std::vector<Value>& known_inputs(ViewId id);

  // Renders a view as a nested term for debugging, e.g.
  // "p1@2<p0@1<...>, -,- >".
  std::string to_string(ViewId id) const;

  static std::uint64_t content_hash(const ViewNode& v) noexcept {
    std::uint64_t h = hash_combine(static_cast<std::uint64_t>(v.owner),
                                   static_cast<std::uint64_t>(v.round));
    h = hash_combine(h, static_cast<std::uint64_t>(v.input));
    h = hash_combine(h, static_cast<std::uint64_t>(v.prev));
    h = hash_combine(h, v.obs.size());
    for (const Obs& o : v.obs) {
      h = hash_combine(h, static_cast<std::uint64_t>(o.source));
      h = hash_combine(h, static_cast<std::uint64_t>(o.view));
    }
    return h;
  }

 private:
  ViewId intern(ViewNode node);
  ViewId intern_impl(ViewNode node, std::uint64_t h,
                     runtime::Counter* miss_counter);

  int n_;
  std::mutex mu_;
  // hash -> id; equality confirmed against the arena-resident node. Guarded
  // by mu_.
  HashIndex<ViewId> index_;
  runtime::ConcurrentSlotVector<ViewNode> nodes_;
  std::atomic<std::size_t> next_id_{0};
  std::atomic<std::size_t> approx_bytes_{0};
  // Per-node memo slot; nullptr until the first known_inputs(id) publishes.
  runtime::ConcurrentSlotVector<std::atomic<const std::vector<Value>*>>
      known_memo_;
  runtime::Counter* hits_;
  runtime::Counter* misses_;
  runtime::Counter* restored_;
  // "arena.view_shard_waits", a name perfbench reads: interns that found
  // mu_ held.
  runtime::Counter* lock_waits_;
};

}  // namespace lacon
