// Global states and the hash-consing state arena.
//
// Following Section 2 of the paper, a global state is a local state for the
// environment plus a local state for every process. For our full-information
// models a process local state is its interned view plus its write-once
// decision variable d_i; the environment's local state is a model-specific
// vector of words (register contents, in-transit messages, failed set, ...).
//
// Storage is flat: the arena keeps one word pool and stores each interned
// state as a single region — env words first, then the locals and decisions
// packed as 32-bit lanes. Readers see a StateRef of spans into the pool.
// The models build successors in a SuccessorBuilder, one per layer
// computation, reused for every successor of the layer; intern() and
// restore() take a StateRef of the builder's state, or of a stored record
// viewed in place, and copy it into the pool only when the content is new.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "core/intern.hpp"
#include "core/types.hpp"
#include "core/view.hpp"
#include "util/simd.hpp"

namespace lacon {

struct GlobalState {
  std::vector<std::int64_t> env;  // model-specific environment encoding
  std::vector<ViewId> locals;     // per-process full-information view
  std::vector<Value> decisions;   // write-once d_i; kUndecided = ⊥

  bool operator==(const GlobalState&) const = default;
};

// A read-only, non-owning view of an interned (or about-to-be-interned)
// global state. Field names match GlobalState so read sites are
// source-compatible; the implicit constructor lets GlobalState lvalues flow
// into StateRef parameters. Spans stay valid for the arena's lifetime (pool
// chunks never move) or the GlobalState's lifetime respectively.
struct StateRef {
  std::span<const std::int64_t> env;
  std::span<const ViewId> locals;
  std::span<const Value> decisions;

  StateRef() = default;
  StateRef(const GlobalState& s) noexcept  // NOLINT: implicit by design
      : env(s.env), locals(s.locals), decisions(s.decisions) {}
  StateRef(std::span<const std::int64_t> e, std::span<const ViewId> l,
           std::span<const Value> d) noexcept
      : env(e), locals(l), decisions(d) {}
};

// Content equality (spans have no operator==).
bool operator==(const StateRef& a, const StateRef& b) noexcept;

// The models' construction type: scratch for one successor at a time.
// compute_layer owns one builder for the call (never thread_local, so
// connections sharing a session stay independent) and reuses it for every
// successor of the layer. start(x) overwrites `next` with x's content, and
// each phase clears the observation buffer it fills; clear() and assign()
// keep a vector's capacity, so once the buffers have grown to the layer's
// largest successor, building one allocates nothing. Views extend over
// spans of `obs`, and `next` is interned as a StateRef
// (LayeredModel::intern_canonical, which folds it in place under the
// symmetry quotient).
struct SuccessorBuilder {
  GlobalState next;
  // Per-phase observation buffers, each handed to ViewArena::extend as a
  // span. Two, for successors built from two observation lists at once:
  // the message-passing pair that receives before either sends, and
  // S^rw's R1 and R2 read sweeps.
  std::array<std::vector<Obs>, 2> obs;

  void start(const StateRef& x) {
    next.env.assign(x.env.begin(), x.env.end());
    next.locals.assign(x.locals.begin(), x.locals.end());
    next.decisions.assign(x.decisions.begin(), x.decisions.end());
  }
};

// x and y agree modulo j: environments equal and all process local states
// (view and decision variable) equal except possibly j's (Section 2).
bool agree_modulo(const StateRef& x, const StateRef& y, ProcessId j);

// Interns global states; equal states receive equal StateIds. This makes
// the paper's state-equality arguments — e.g. x(j,[0]) == x(j',[0]) in the
// mobile model, or the permutation-layering diamond — checkable as id
// equality.
//
// Thread-safety: intern() may be called concurrently (layer computations of
// connections sharing a session do); state() and size() are lock-free reads
// of every id below size() (core/intern.hpp). Which content gets which id
// depends on scheduling, so canonical cross-run output must go through
// env_to_string / ViewArena::to_string, never raw ids (DESIGN.md §9).
class StateArena {
 public:
  StateArena() : core_("state") {}

  // `s` may view any caller-owned memory; it is copied only on a miss.
  StateId intern(const StateRef& s) {
    return insert(s, content_hash(s), false);
  }

  // Re-interns a state read back from a lacon.store.v1 snapshot or a
  // lacon.wal.v1 record (store/). Identical to intern() except that a fresh
  // insertion bumps "arena.state_restored" instead of the miss counter, so
  // the arena miss count after a warm start reflects only *new* content
  // discovered by the analysis, not the replay itself. `hash` must be
  // content_hash(s): the loaders compute it once for their digest
  // cross-checks.
  StateId restore(const StateRef& s, std::uint64_t hash) {
    assert(hash == content_hash(s) && "hash must be content_hash(s)");
    return insert(s, hash, true);
  }

  // Words in a state's pool region. The store loaders refuse a state that
  // needs more than WordPool::kMaxRegionWords (store/codec.hpp).
  static constexpr std::size_t region_words(std::size_t env_len,
                                            std::size_t n) noexcept {
    return env_len + 2 * lane_words(n);
  }

  StateRef state(StateId id) const noexcept {
    const Header& h = core_.header(id);
    const auto* locals =
        reinterpret_cast<const ViewId*>(h.region + h.env_len);
    const auto* decisions = reinterpret_cast<const Value*>(
        h.region + h.env_len + lane_words(h.n));
    return {{h.region, h.env_len}, {locals, h.n}, {decisions, h.n}};
  }

  // The ids published so far; each one's content is readable.
  std::size_t size() const noexcept { return core_.size(); }

  // Approximate heap bytes, a function of the content (core/intern.hpp).
  std::size_t approx_bytes() const noexcept { return core_.approx_bytes(); }

  // Three position-keyed sections (util/simd.hpp hash_words/hash_lanes):
  // the env words seed the locals section, which seeds the decisions
  // section. This is explore's intern-path hot loop.
  static std::uint64_t content_hash(const StateRef& s) noexcept {
    std::uint64_t h =
        simd::hash_words(s.env.data(), s.env.size(), 0x6c61636f6eULL);
    h = simd::hash_lanes(s.locals.data(), s.locals.size(), h);
    return simd::hash_lanes(s.decisions.data(), s.decisions.size(), h);
  }

 private:
  struct Header {
    const std::int64_t* region = nullptr;
    std::uint32_t env_len = 0;
    std::uint32_t n = 0;  // process count: len of locals and of decisions
  };
  // 32-bit lanes (locals, decisions) pack two per word.
  static constexpr std::size_t lane_words(std::size_t n) noexcept {
    return (n + 1) / 2;
  }

  StateId insert(const StateRef& s, std::uint64_t h, bool restored);

  InternCore<StateId, Header> core_;
};

}  // namespace lacon
