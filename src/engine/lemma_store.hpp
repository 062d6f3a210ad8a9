// Cross-level lemma store (DESIGN.md §15): a cache of *proven* valence
// facts keyed by canonical state signature instead of StateId.
//
// ValenceEngine's memo is keyed by StateId, so it lives and dies with one
// model instance and one horizon. Exact valence results, however, are pure
// functions of a state's *content* (plus the model semantics and decision
// rule): once "this state is 0-univalent, proven with lookahead 3" has been
// established, the fact holds for every engine over the same model/rule —
// at a deeper horizon, at a later level, or in a warm-started session whose
// StateIds came out in a different order. The store keys such facts by the
// 128-bit canonical signature (LayeredModel::canonical_signature), which
// hashes rewrite-keys rather than raw ids, so facts survive id
// nondeterminism and snapshot/WAL restarts (store/snapshot.hpp persists
// them as the optional kLemmas section).
//
// Soundness contract:
//  * Only exact facts are stored. An exact valence set is final — computing
//    with any budget >= the fact's lookahead returns the same set — so a
//    hit is byte-identical to what the engine would have computed, never a
//    "better" truncated answer. (lookup() enforces budget >= lookahead.)
//  * One store serves one (model semantics, decision rule, n, t) identity.
//    Callers scope a store to a session the way laconrd does; mixing rules
//    or models in one store would alias signatures across incompatible run
//    trees. The canonical signature hashes state content only.
//  * Thread-safe: sharded like the valence memo; lookup/publish may race
//    freely with each other and with export/import.
//
// In the spirit of learned-clause stores in modern solvers (lemma databases
// keyed by canonical clause content, reused across restarts), but for the
// layered analysis the "clauses" are univalence certificates.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "engine/valence.hpp"

namespace lacon {

namespace runtime {
class Counter;
}  // namespace runtime

class LemmaStore {
 public:
  using Signature = std::pair<std::uint64_t, std::uint64_t>;

  // One persisted fact: the state with canonical signature (sig_hi, sig_lo)
  // has exactly the valence set {v0, v1}, proven exact with `lookahead`
  // layers of budget. Mirrors the 24-byte on-disk record
  // (store/codec.hpp encode_lemma_entry).
  struct Fact {
    std::uint64_t sig_hi = 0;
    std::uint64_t sig_lo = 0;
    std::int32_t lookahead = 0;
    bool v0 = false;
    bool v1 = false;
  };

  LemmaStore();

  // The stored fact for `sig`, provided the requesting budget covers the
  // lookahead it was proven with (a shallower request must fall through to
  // its own computation — returning a deeper fact would make truncated
  // results depend on store warmth). Hits return exact ValenceInfo.
  std::optional<ValenceInfo> lookup(Signature sig, int budget);

  // Records an exact fact. Non-exact infos are ignored (truncated valence
  // sets are not lemmas). Re-publishing the same signature keeps the
  // smallest lookahead, widening future hit eligibility; conflicting
  // valence sets (a 2^-128 signature collision, or a misuse across rules)
  // keep the first-stored fact.
  void publish(Signature sig, int lookahead, const ValenceInfo& info);

  // Every fact, sorted by (sig_hi, sig_lo) — the deterministic order the
  // store sections and WAL deltas are written in. Takes the shard locks.
  std::vector<Fact> export_facts() const;

  // Replays facts exported from a store over the same model identity.
  // Merges under the publish() rule, so importing into a warm store is safe.
  // Queues nothing.
  void import_facts(const std::vector<Fact>& facts);

  std::size_t size() const noexcept;

  // --- Unpersisted-fact queue (store/wal.hpp) ----------------------------
  //
  // Once a write-ahead log has fixed what is on disk (Wal::replay or
  // Wal::reset_to), every publish() that inserts a fact or lowers its
  // lookahead queues the signature under the shard lock.
  void record_unpersisted() noexcept { recording_.store(true); }

  // Removes and returns the queued facts, each once with its current value,
  // sorted by (sig_hi, sig_lo).
  std::vector<Fact> drain_unpersisted();

  // Queues drained facts again: a log write that failed keeps its delta.
  void requeue(const std::vector<Fact>& facts);

 private:
  struct Entry {
    std::int32_t lookahead = 0;
    bool v0 = false;
    bool v1 = false;
  };
  struct SigHash {
    std::size_t operator()(const Signature& s) const noexcept {
      // sig_hi and sig_lo are independent 64-bit hashes already; fold.
      return static_cast<std::size_t>(s.first ^ (s.second * 0x9e3779b97f4a7c15ULL));
    }
  };
  static constexpr std::size_t kShards = 16;
  struct alignas(64) Shard {
    mutable std::mutex mu;
    std::unordered_map<Signature, Entry, SigHash> map;
    std::vector<Signature> unpersisted;
  };

  Shard& shard_for(const Signature& sig) const noexcept {
    return shards_[static_cast<std::size_t>(sig.first) % kShards];
  }

  // publish()'s merge under a held shard lock; true when the store changed.
  bool merge_locked(Shard& shard, Signature sig, int lookahead,
                    const ValenceInfo& info);

  mutable std::array<Shard, kShards> shards_;
  std::atomic<bool> recording_{false};
  runtime::Counter* hits_;
  runtime::Counter* misses_;
  runtime::Counter* published_;
};

}  // namespace lacon
