// Process-permutation symmetry quotient over the interned state space.
//
// The paper's models are symmetric under relabeling of the processes: if π
// is a permutation of {0,..,n-1} and x a global state, then π·x (permute
// the local-state and decision slots, rewrite every process id embedded in
// the view DAG and the environment) is reachable exactly when x is, at the
// same depth, with the same valence and the same similarity structure. The
// quotient layer exploits that: at intern time every GlobalState is folded
// onto the lexicographically-minimal member of its orbit, so explore /
// valence / similarity / diameter run on up to n!-fold fewer states.
//
// Canonicalization ("canonicalize" below) works in three stages:
//
//   (1) Shape keys. Every process gets a permutation-invariant key: a
//       structural hash of its view with all process ids erased (obs folded
//       commutatively), combined with its decision value. Any permutation
//       attaining the minimal canonical key must sort processes by shape
//       key, so only the permutations inside shape-tie groups are ever
//       enumerated — usually exactly one candidate.
//   (2) Candidate comparison. Each candidate permutation is compared by an
//       id-free key of the state it would produce: the permuted decision
//       vector, a model-supplied environment key (sym_env_key), and per
//       position a 128-bit structural hash of the relabeled view
//       (Relabeling::rewrite_key — sources mapped, obs re-sorted by mapped
//       source, memoized per (view, relevant-restricted permutation)).
//       Every component is a function of the *resulting* state, never of
//       the candidate permutation itself, so the chosen representative is
//       constant on the whole orbit.
//   (3) Exact tie resolution. Candidates whose 128-bit keys tie are
//       materialized (memoized view rewriting through the arena) and
//       compared exactly; equal candidates count the stabilizer subgroup,
//       so orbit sizes — n! / |Stab| — are exact, and a hash collision can
//       never miscount a weight. (A collision could at worst make the
//       *choice* among two genuinely different orbit members depend on
//       interning order; that is a ~2^-128 event and affects which member
//       represents the orbit, never any verdict.)
//
// Gated by LACON_SYMMETRY=off|on (default off; malformed values warn once
// and fall back, like LACON_WAL). Models opt in via
// LayeredModel::symmetry() — see core/model.hpp; asymmetric models keep the
// kTrivial default and are never touched. DESIGN.md §15 documents the
// contracts (equivariance, decision-rule symmetry, id-nondeterminism).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/state.hpp"
#include "core/types.hpp"
#include "core/view.hpp"
#include "runtime/slot_vector.hpp"
#include "util/permutations.hpp"

namespace lacon {
class LayeredModel;
}  // namespace lacon

namespace lacon::sym {

// How a model behaves under process relabeling.
enum class SymmetryClass {
  // No useful symmetry declared: states intern as-is. The safe default for
  // models whose layering is not closed under relabeling (index-prefix
  // schedules, coordinator roles, ...).
  kTrivial,
  // The layering commutes with every permutation of {0,..,n-1} and the
  // initial inputs are permutation-closed; the full symmetric group is
  // quotiented out.
  kFull,
};

// LACON_SYMMETRY: "off" | "on". Malformed values warn once (never abort)
// and fall back. Exposed for the knob tests.
bool parse_symmetry(const char* text, bool fallback) noexcept;

// The effective knob value: a ScopedSymmetry override if one is active,
// else the environment (parsed per call, so tests may setenv between model
// constructions).
bool enabled() noexcept;

// RAII override of the knob for benches and in-process A/B tests.
// Nestable; restores on destruction.
// Affects models constructed while active (the quotient decision is
// latched per model at first intern).
class ScopedSymmetry {
 public:
  explicit ScopedSymmetry(bool on) noexcept;
  ~ScopedSymmetry();

  ScopedSymmetry(const ScopedSymmetry&) = delete;
  ScopedSymmetry& operator=(const ScopedSymmetry&) = delete;

 private:
  int previous_;
};

// n! as a 64-bit integer (n <= 20).
std::uint64_t factorial(int n) noexcept;

class Canonicalizer;

// One process relabeling bound to a canonicalizer's memo tables. Position p
// of the relabeled state holds old process old_at(p); process id i embedded
// anywhere in the old state becomes new_of(i).
class Relabeling {
 public:
  ProcessId old_at(std::size_t new_pos) const noexcept {
    return perm_[new_pos];
  }
  ProcessId new_of(ProcessId old) const noexcept {
    return inv_[static_cast<std::size_t>(old)];
  }
  int n() const noexcept { return static_cast<int>(perm_.size()); }

  // 128-bit structural hash of view `v` with every embedded process id
  // mapped through new_of and observations re-sorted by mapped source — an
  // id-free key of the view rewrite() would intern. Memoized per
  // (view, relevant-restricted permutation) across all relabelings of the
  // owning canonicalizer.
  std::pair<std::uint64_t, std::uint64_t> rewrite_key(ViewId v);

  // The interned relabeled view. Memoized like rewrite_key; the identity
  // relabeling (restricted to the view's relevant processes) returns `v`
  // itself without touching the arena.
  ViewId rewrite(ViewId v);

 private:
  friend class Canonicalizer;
  Relabeling(Canonicalizer* canon, Permutation perm);

  Canonicalizer* canon_;
  Permutation perm_;  // new position -> old process
  Permutation inv_;   // old process -> new position
};

// Orbit canonicalization over one model's view arena. Owns the shape /
// relevant-set / rewrite memo tables (thread-safe: canonicalization runs
// inside layer computations of concurrent connections). One instance per
// LayeredModel whose quotient is active.
class Canonicalizer {
 public:
  // `views` must outlive the canonicalizer. Relabelings require n <= 15
  // (4-bit permutation packing in the memo keys, 0xF = irrelevant);
  // LayeredModel builds one only when its quotient is active, which it
  // gates accordingly.
  Canonicalizer(ViewArena& views, int n);

  Canonicalizer(const Canonicalizer&) = delete;
  Canonicalizer& operator=(const Canonicalizer&) = delete;

  // Folds `s` onto its orbit representative in place. Returns the exact
  // stabilizer size |Stab| (orbit size = n!/|Stab|); sets *folded when the
  // content changed. `model` supplies the environment hooks.
  std::uint64_t canonicalize(const LayeredModel& model, GlobalState* s,
                             bool* folded);

  // π·s for an explicit permutation (new position p <- old process
  // perm[p]); used by orbit unfolding. Does not canonicalize.
  GlobalState permute(const LayeredModel& model, const StateRef& s,
                      const Permutation& perm);

 private:
  friend class Relabeling;

  struct KeyHash {
    std::size_t operator()(
        const std::pair<std::uint64_t, std::uint64_t>& k) const noexcept {
      return static_cast<std::size_t>(
          hash_combine(k.first, k.second));
    }
  };
  struct alignas(64) MemoShard {
    std::mutex mu;
    // (view, packed masked permutation) -> 128-bit rewrite key.
    std::unordered_map<std::pair<std::uint64_t, std::uint64_t>,
                       std::pair<std::uint64_t, std::uint64_t>, KeyHash>
        keys;
    // (view, packed masked permutation) -> materialized rewritten view.
    std::unordered_map<std::pair<std::uint64_t, std::uint64_t>, ViewId,
                       KeyHash>
        views;
  };
  static constexpr std::size_t kMemoShards = 16;

  std::uint64_t shape(ViewId v);
  std::uint64_t relevant_mask(ViewId v);
  // The memo key permutation: new_of packed 4 bits per process, processes
  // outside v's relevant set masked to 0xF. Second field reports whether
  // the restriction is the identity.
  std::uint64_t packed_masked(ViewId v, const Permutation& inv,
                              bool* identity);
  std::pair<std::uint64_t, std::uint64_t> rewrite_key(ViewId v,
                                                      const Permutation& inv);
  ViewId rewrite(ViewId v, const Permutation& inv);

  // The candidate comparison key (decisions, env key, per-position view
  // keys) of perm applied to s.
  void build_key(const LayeredModel& model, const StateRef& s,
                 Relabeling& rel, std::vector<std::uint64_t>* out);

  MemoShard& memo_shard(ViewId v) noexcept {
    return memo_[static_cast<std::size_t>(v) % kMemoShards];
  }

  ViewArena* views_;
  int n_;
  // Per-view memos: (2*hash)|1 so 0 means "unset" (hash may be anything).
  runtime::ConcurrentSlotVector<std::atomic<std::uint64_t>> shape_memo_;
  // Relevant-process bitmask | kMaskComputed.
  runtime::ConcurrentSlotVector<std::atomic<std::uint64_t>> mask_memo_;
  std::unique_ptr<MemoShard[]> memo_;
  runtime::Counter* rewrites_;
};

}  // namespace lacon::sym
