#include "core/state.hpp"

#include <algorithm>
#include <cstring>

#include "runtime/fault.hpp"
#include "runtime/stats.hpp"
#include "util/simd.hpp"

namespace lacon {

namespace {

// Deterministic per-state byte estimate: header + flat payload + a flat
// allowance for the index entry. A pure function of the state's
// content — never of pool occupancy or vector capacities — so
// LayeredModel::memory_footprint reads the same total for the same interned
// content however interns interleave (chunk-tail waste in the pool varies
// with scheduling and is deliberately not counted).
std::size_t state_footprint(std::size_t env_len, std::size_t n) noexcept {
  const std::size_t words = env_len + 2 * ((n + 1) / 2);
  return 16 /* header */ + words * sizeof(std::int64_t) + 48 /* index */;
}

}  // namespace

bool operator==(const StateRef& a, const StateRef& b) noexcept {
  if (a.env.size() != b.env.size() || a.locals.size() != b.locals.size() ||
      a.decisions.size() != b.decisions.size()) {
    return false;
  }
  const std::size_t n = a.locals.size();
  return simd::words_equal(a.env.data(), b.env.data(), a.env.size()) &&
         simd::lanes_equal_skip(a.locals.data(), b.locals.data(), n,
                                simd::kNoSkip) &&
         simd::lanes_equal_skip(a.decisions.data(), b.decisions.data(), n,
                                simd::kNoSkip);
}

bool agree_modulo(const StateRef& x, const StateRef& y, ProcessId j) {
  assert(x.locals.size() == y.locals.size());
  if (x.env.size() != y.env.size()) return false;
  // The kernels read exactly size() elements, so vector-backed candidate
  // refs (no padded tail) and pool-backed refs mix freely here.
  if (!simd::words_equal(x.env.data(), y.env.data(), x.env.size())) {
    return false;
  }
  const std::size_t n = x.locals.size();
  const auto skip = static_cast<std::size_t>(j);  // j == -1 -> kNoSkip
  return simd::lanes_equal_skip(x.locals.data(), y.locals.data(), n, skip) &&
         simd::lanes_equal_skip(x.decisions.data(), y.decisions.data(), n,
                                skip);
}

StateArena::StateArena()
    : hits_(&runtime::Stats::global().counter("arena.state_hits")),
      misses_(&runtime::Stats::global().counter("arena.state_misses")),
      restored_(&runtime::Stats::global().counter("arena.state_restored")),
      lock_waits_(
          &runtime::Stats::global().counter("arena.state_shard_waits")) {}

StateId StateArena::intern(GlobalState s) {
  const StateRef candidate(s);
  return intern_impl(candidate, content_hash(candidate), misses_);
}

StateId StateArena::restore(const StateRef& s, std::uint64_t hash) {
  assert(hash == content_hash(s) && "hash must be content_hash(s)");
  return intern_impl(s, hash, restored_);
}

StateId StateArena::intern_impl(const StateRef& s, std::uint64_t h,
                                runtime::Counter* miss_counter) {
  fault::maybe_throw_alloc_fault();
  assert(s.decisions.size() == s.locals.size() &&
         "a state carries one decision slot per process");
  std::unique_lock<std::mutex> lock(mu_, std::try_to_lock);
  if (!lock.owns_lock()) {
    lock_waits_->increment();  // contended: another intern holds the lock
    lock.lock();
  }
  if (const std::optional<StateId> found =
          index_.find(h, [&](StateId id) { return state(id) == s; })) {
    hits_->increment();
    return *found;
  }
  // Miss: copy the payload into the pool, write the header, index it, and
  // only then publish the id by raising the count, so a reader that sees
  // the id in size() sees its content too.
  const std::size_t n = s.locals.size();
  const std::size_t lanes = lane_words(n);
  const std::size_t words = s.env.size() + 2 * lanes;
  Header hd;
  hd.env_len = static_cast<std::uint32_t>(s.env.size());
  hd.n = static_cast<std::uint32_t>(n);
  if (words != 0) {
    hd.offset = pool_.alloc(words);
    std::int64_t* base = pool_.mutable_data(hd.offset);
    std::copy(s.env.begin(), s.env.end(), base);
    std::int64_t* lanes_base = base + s.env.size();
    if (n % 2 != 0) {  // zero the padding halves of odd-count 32-bit lanes
      lanes_base[lanes - 1] = 0;
      lanes_base[2 * lanes - 1] = 0;
    }
    std::memcpy(lanes_base, s.locals.data(), n * sizeof(ViewId));
    std::memcpy(lanes_base + lanes, s.decisions.data(), n * sizeof(Value));
#ifndef NDEBUG
    if (n % 2 != 0) {
      // The odd-n padding lanes must stay zero forever (intern AND restore
      // both land here), so a pooled word region is a pure function of the
      // state's content. See DESIGN.md §13 and the store_test
      // restored-padding case.
      assert(reinterpret_cast<const std::uint32_t*>(lanes_base)[n] == 0 &&
             "odd-n locals padding lane must be zero");
      assert(reinterpret_cast<const std::uint32_t*>(lanes_base + lanes)[n] ==
                 0 &&
             "odd-n decisions padding lane must be zero");
    }
#endif
  }
  const std::size_t idx = next_id_.load(std::memory_order_relaxed);
  const auto id = static_cast<StateId>(idx);
  headers_.slot(idx) = hd;
  approx_bytes_.fetch_add(state_footprint(s.env.size(), n),
                          std::memory_order_relaxed);
  index_.insert(h, id);
  next_id_.store(idx + 1, std::memory_order_release);
  miss_counter->increment();
  return id;
}

}  // namespace lacon
