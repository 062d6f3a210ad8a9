// Global states and the hash-consing state arena.
//
// Following Section 2 of the paper, a global state is a local state for the
// environment plus a local state for every process. For our full-information
// models a process local state is its interned view plus its write-once
// decision variable d_i; the environment's local state is a model-specific
// vector of words (register contents, in-transit messages, failed set, ...).
//
// Storage is flat: the arena keeps one contiguous word pool and stores each
// interned state as a single (offset, len) region — env words first, then
// the locals and decisions packed as 32-bit lanes. Readers see a StateRef of
// spans into the pool; GlobalState (three vectors) remains the construction
// type handed to intern(). Snapshot and WAL replay hand restore() a StateRef
// instead, so a loader can view a stored record in place and the arena
// makes the one copy into the pool.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

#include "core/hash_index.hpp"
#include "core/types.hpp"
#include "runtime/slot_vector.hpp"
#include "runtime/word_pool.hpp"
#include "util/hash.hpp"
#include "util/simd.hpp"

namespace lacon::runtime {
class Counter;
}  // namespace lacon::runtime

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

// x and y agree modulo j: environments equal and all process local states
// (view and decision variable) equal except possibly j's (Section 2).
bool agree_modulo(const StateRef& x, const StateRef& y, ProcessId j);

// Interns GlobalStates; equal states receive equal StateIds. This makes the
// paper's state-equality arguments — e.g. x(j,[0]) == x(j',[0]) in the mobile
// model, or the permutation-layering diamond — checkable as id equality.
//
// Thread-safety: intern() may be called concurrently (layer computations of
// connections sharing a session do). One mutex guards the index, the pool
// cursor and the id counter, so racing interns of equal content agree on
// the id and ids stay dense — but *which* content gets which id depends on
// scheduling. Canonical cross-run output must go through env_to_string /
// ViewArena::to_string, never raw ids (DESIGN.md §9).
//
// state() and size() are lock-free. An intern writes the pool words and
// the header, then publishes the id with a release store of the count, so
// every id below size() can be read while other threads keep interning.
class StateArena {
 public:
  StateArena();

  StateId intern(GlobalState s);

  // Re-interns a state read back from a lacon.store.v1 snapshot or a
  // lacon.wal.v1 record (store/). Identical to intern() — same pool copy,
  // same index insert, same id assignment, same kArenaAlloc fault probe and
  // byte accounting — except that a fresh insertion bumps
  // "arena.state_restored" instead of the miss counter, so the arena miss
  // count after a warm start reflects only *new* content discovered by the
  // analysis, not the replay itself. `s` may view any caller-owned memory
  // (the loaders view records inside their read buffers); it is copied
  // before restore returns. `hash` must be content_hash(s): the loaders
  // compute it once for their digest cross-checks.
  StateId restore(const StateRef& s, std::uint64_t hash);

  StateRef state(StateId id) const noexcept {
    const Header& h = headers_[static_cast<std::size_t>(id)];
    if (h.total_words() == 0) return {};
    const std::int64_t* base = pool_.data(h.offset);
    const auto* locals =
        reinterpret_cast<const ViewId*>(base + h.env_len);
    const auto* decisions = reinterpret_cast<const Value*>(
        base + h.env_len + lane_words(h.n));
    return {{base, h.env_len}, {locals, h.n}, {decisions, h.n}};
  }

  // The ids published so far; each one's content is readable.
  std::size_t size() const noexcept {
    return next_id_.load(std::memory_order_acquire);
  }

  // Approximate heap footprint of the interned states. Deliberately a
  // deterministic function of the interned *content* (header + payload words
  // + a flat index allowance per unique state), not of pool occupancy:
  // chunk-tail waste depends on scheduling, and a memory bound must read
  // the same value for the same content however interns interleave.
  // Monotone, relaxed reads.
  std::size_t approx_bytes() const noexcept {
    return approx_bytes_.load(std::memory_order_relaxed);
  }

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
    std::uint64_t offset = 0;
    std::uint32_t env_len = 0;
    std::uint32_t n = 0;  // process count: len of locals and of decisions

    std::size_t total_words() const noexcept {
      return env_len + 2 * lane_words(n);
    }
  };
  // 32-bit lanes (locals, decisions) pack two per word.
  static constexpr std::size_t lane_words(std::size_t n) noexcept {
    return (n + 1) / 2;
  }

  StateId intern_impl(const StateRef& s, std::uint64_t h,
                      runtime::Counter* miss_counter);

  std::mutex mu_;
  // hash -> id; equality is confirmed against the pooled payload, so the
  // index stores no second copy of any state. Guarded by mu_.
  HashIndex<StateId> index_;
  runtime::WordPool pool_;  // allocated under mu_
  runtime::ConcurrentSlotVector<Header> headers_;
  std::atomic<std::size_t> next_id_{0};
  std::atomic<std::size_t> approx_bytes_{0};
  runtime::Counter* hits_;
  runtime::Counter* misses_;
  runtime::Counter* restored_;
  // "arena.state_shard_waits", a name perfbench reads: interns that found
  // mu_ held.
  runtime::Counter* lock_waits_;
};

}  // namespace lacon
