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

#include <cstdint>
#include <span>
#include <string>
#include <type_traits>

#include "core/intern.hpp"
#include "core/types.hpp"
#include "util/hash.hpp"

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

// A read-only, non-owning view of an interned (or about-to-be-interned) node
// of the view DAG: the local state of `owner` after `round` completed local
// phases. `obs` spans the arena's pool for node(), or caller-owned memory
// for a candidate (extend's observations, a record in a store file).
struct ViewRef {
  // A FORMATS.md §1.5 record is these lanes (owner .. obs_count), then the
  // observations as (source, view) lane pairs.
  static constexpr std::size_t kHeadLanes = 5;

  ProcessId owner = 0;
  std::int32_t round = 0;    // number of completed local phases
  Value input = 0;           // owner's initial input value
  ViewId prev = kNoView;     // state before this phase; kNoView iff round 0
  std::span<const Obs> obs;  // observations made during this phase

  // Views the §1.5 record at `r` (4-aligned) in place.
  static ViewRef at(const std::int32_t* r) noexcept {
    return {r[0], r[1], r[2], r[3],
            {reinterpret_cast<const Obs*>(r + kHeadLanes),
             static_cast<std::uint32_t>(r[4])}};
  }
};

// Content equality (spans have no operator==).
bool operator==(const ViewRef& a, const ViewRef& b) noexcept;

// Interns views; equal views receive equal ViewIds.
//
// Each view is one pool region of 32-bit lanes: its n known-input lanes,
// written when the view is interned or restored, then its FORMATS.md §1.5
// record (owner, round, input, prev, obs_count, then the (source, view)
// pairs). Thread-safety: initial()/extend()/restore() may be called
// concurrently (layer computations of connections sharing a session do);
// node(), known_inputs(), record(), size() and to_string() are lock-free
// reads of every id below size() or received through an intern call or
// another happens-before edge (core/intern.hpp).
class ViewArena {
 public:
  explicit ViewArena(int n);

  int n() const noexcept { return n_; }

  // The initial (round-0) view of a process with a given input.
  ViewId initial(ProcessId owner, Value input);

  // The view after one more local phase extending `prev` with observations
  // `obs`, copied only when the view is new. Callers must pass observations
  // in a canonical (sorted-by-source) order so that equal views intern to
  // equal ids.
  ViewId extend(ViewId prev, std::span<const Obs> obs);

  // Re-interns a view read back by the store (store/codec.hpp), `v.obs`
  // viewing the record in place. Identical to extend's intern path except
  // that a fresh insertion bumps "arena.view_restored" instead of the miss
  // counter; replay happens in stored-id order, so the returned id equals
  // the stored one. `hash` must be content_hash(v): the loaders compute it
  // while decoding.
  ViewId restore(const ViewRef& v, std::uint64_t hash);

  // Words in the pool region of a view with `obs` observations. The store
  // loaders refuse one that needs more than WordPool::kMaxRegionWords.
  static constexpr std::size_t region_words(int n, std::size_t obs) noexcept {
    return (n + ViewRef::kHeadLanes + 2 * obs + 1) / 2;
  }

  ViewRef node(ViewId id) const noexcept {
    return ViewRef::at(lanes(id) + n_);
  }

  // The inputs this view knows about: entry j is process j's input if it is
  // determined by the view, kUnknownInput otherwise.
  std::span<const Value> known_inputs(ViewId id) const noexcept {
    return {lanes(id), static_cast<std::size_t>(n_)};
  }

  // The view's FORMATS.md §1.5 record, as the store writes it.
  std::span<const std::int32_t> record(ViewId id) const noexcept {
    const std::int32_t* r = lanes(id) + n_;
    return {r, ViewRef::kHeadLanes + 2 * ViewRef::at(r).obs.size()};
  }

  // The ids published so far; each one's node is readable.
  std::size_t size() const noexcept { return core_.size(); }

  // Approximate heap bytes, a function of the content (core/intern.hpp).
  std::size_t approx_bytes() const noexcept { return core_.approx_bytes(); }

  // Renders a view as a nested term for debugging, e.g.
  // "p1@2<p0@1<...>, -,- >".
  std::string to_string(ViewId id) const;

  static std::uint64_t content_hash(const ViewRef& v) noexcept {
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
  static_assert(std::is_same_v<ProcessId, std::int32_t> &&
                std::is_same_v<Value, std::int32_t> &&
                std::is_same_v<ViewId, std::int32_t> && sizeof(Obs) == 8 &&
                alignof(Obs) == 4);

  struct Header {
    const std::int64_t* region = nullptr;
  };

  const std::int32_t* lanes(ViewId id) const noexcept {
    return reinterpret_cast<const std::int32_t*>(core_.header(id).region);
  }

  ViewId insert(const ViewRef& v, std::uint64_t h, bool restored);

  int n_;
  InternCore<ViewId, Header> core_;
};

}  // namespace lacon
