// DenseBitset: a growable bit-vector for sets of dense small integers.
//
// StateIds are dense (the arena hands them out from an atomic counter
// starting at 0), so the engines' visited sets — reachable_by_depth's
// frontier dedup, the spec/covering/lemma BFS sweeps, the DOT exporter —
// are sets over [0, arena.size()). An unordered_set pays a heap node and a
// hash per insert for what is one bit of information; this bitset makes
// insert/contains a shift and a mask, and the whole set a contiguous
// allocation that grows geometrically.
//
// The BFS step drain_fresh_into runs simd::frontier_advance
// (util/simd.hpp, DESIGN.md §13).
//
// Not thread-safe; the engines use it from their serial merge phases only.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/simd.hpp"

namespace lacon {

class DenseBitset {
 public:
  DenseBitset() = default;
  // `capacity_hint`: number of ids expected (e.g. arena.size()); avoids the
  // first few regrows when known.
  explicit DenseBitset(std::size_t capacity_hint) {
    words_.resize(word_index(capacity_hint) + 1, 0);
  }

  // Inserts i; returns true iff it was not present.
  bool insert(std::size_t i) {
    const std::size_t w = word_index(i);
    if (w >= words_.size()) grow(w);
    const std::uint64_t bit = std::uint64_t{1} << (i & 63);
    if (words_[w] & bit) return false;
    words_[w] |= bit;
    ++count_;
    return true;
  }

  bool contains(std::size_t i) const noexcept {
    const std::size_t w = word_index(i);
    return w < words_.size() && (words_[w] & (std::uint64_t{1} << (i & 63)));
  }

  // Number of set bits.
  std::size_t size() const noexcept { return count_; }
  bool empty() const noexcept { return count_ == 0; }

  // Clears every bit, keeping the allocation; widens to hold
  // `capacity_hint` ids when given. The BFS scratch reuse path.
  void reset(std::size_t capacity_hint = 0) {
    const std::size_t want =
        capacity_hint == 0 ? words_.size() : word_index(capacity_hint) + 1;
    words_.assign(std::max(want, words_.size()), 0);
    count_ = 0;
  }

  // insert() without the growth check: `i` must be inside the current
  // allocation (after reset(capacity) with capacity > i). The inner-loop
  // form for BFS neighbor marking.
  void mark(std::size_t i) noexcept {
    const std::size_t w = word_index(i);
    const std::uint64_t bit = std::uint64_t{1} << (i & 63);
    count_ += static_cast<std::size_t>((words_[w] & bit) == 0);
    words_[w] |= bit;
  }

  // One level-synchronous BFS step with `this` as the `next` frontier set:
  // the bits of `this` not yet in `visited` are added to `visited` and
  // their indices appended to `out` in ascending order; `this` is cleared.
  // Returns the number of fresh bits. `out` needs room for one entry per
  // bit of capacity in the worst case; both sets must share a capacity
  // (reset() to the same hint).
  std::size_t drain_fresh_into(DenseBitset& visited, std::uint32_t* out) {
    const std::size_t fresh = simd::frontier_advance(
        words_.data(), visited.words_.data(), words_.size(), out);
    visited.count_ += fresh;
    count_ = 0;
    return fresh;
  }

 private:
  static std::size_t word_index(std::size_t i) noexcept { return i >> 6; }

  void grow(std::size_t w) {
    std::size_t target = words_.empty() ? std::size_t{8} : words_.size();
    while (target <= w) target *= 2;
    words_.resize(target, 0);
  }

  std::vector<std::uint64_t> words_;
  std::size_t count_ = 0;
};

}  // namespace lacon
