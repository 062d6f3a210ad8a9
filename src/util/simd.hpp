// The flat-encoding kernels: loops over the WordPool state encoding
// (DESIGN.md §13).
//
// Every interned GlobalState is one contiguous word region — env int64
// words, then locals and decisions packed as 32-bit lanes, two per word,
// with odd-n padding lanes zeroed. These are the loops the layered analysis
// runs over that encoding:
//
//   (1) words_equal / lanes_equal_skip — the agree_modulo compare: bulk
//       env-word equality plus a 32-bit-lane compare that masks out the
//       erased process j's slot (core/state.cc, the msgpass models).
//   (2) fingerprint_lanes — all n erase-one similarity fingerprints of a
//       state in one pass over its lanes instead of n (core/model.cc).
//   (3) hash_words / hash_lanes — the position-keyed sections of
//       StateArena::content_hash (core/state.hpp).
//   (4) frontier_advance — the fused frontier-expansion step of the
//       level-synchronous BFS behind Graph::diameter (util/bitset.hpp
//       drain_fresh_into): fresh = next & ~visited; visited |= fresh; emit
//       fresh bit indices.
//
// They are plain loops, called inline; tests/simd_test.cc checks each one
// against its reference definition.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

#include "util/hash.hpp"

namespace lacon::simd {

// "No lane erased" sentinel for lanes_equal_skip (any value >= n works).
inline constexpr std::size_t kNoSkip = ~std::size_t{0};

// Position key stride of hash_words/hash_lanes (the splitmix64 increment).
inline constexpr std::uint64_t kHashPhi = 0x9e3779b97f4a7c15ULL;

// All n 64-bit words equal.
inline bool words_equal(const std::int64_t* a, const std::int64_t* b,
                        std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

// All n 32-bit lanes equal, ignoring lane `skip` (pass kNoSkip to compare
// every lane). Reads exactly n lanes from each side — callers may hand in
// vector-backed spans without padded tails.
inline bool lanes_equal_skip(const std::int32_t* a, const std::int32_t* b,
                             std::size_t n, std::size_t skip) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    if (i != skip && a[i] != b[i]) return false;
  }
  return true;
}

// Erase-one fingerprint row: out[j] becomes the fold of hash_combine over
//   seed, locals[0], decisions[0], ..., locals[n-1], decisions[n-1]
// with locals[j] and decisions[j] skipped — the base
// LayeredModel::fingerprint_row_into row when `seed` is the state's env
// hash. Lanes are sign-extended to 64 bits before combining, matching
// static_cast<std::uint64_t>(ViewId) on int32 lanes.
inline void fingerprint_lanes(std::uint64_t seed, const std::int32_t* locals,
                              const std::int32_t* decisions, std::size_t n,
                              std::uint64_t* out) noexcept {
  for (std::size_t j = 0; j < n; ++j) out[j] = seed;
  // Item-major instead of row-major: each lane j still receives exactly the
  // per-j fold's operations in the per-j fold's order (items of i < i' are
  // combined before i'), so the row is bit-identical to n independent
  // per-j folds while touching each lane pair once.
  for (std::size_t i = 0; i < n; ++i) {
    const auto l =
        static_cast<std::uint64_t>(static_cast<std::int64_t>(locals[i]));
    const auto d =
        static_cast<std::uint64_t>(static_cast<std::int64_t>(decisions[i]));
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      out[j] = hash_combine(hash_combine(out[j], l), d);
    }
  }
}

// Position-keyed content hash over n 64-bit words — one section of
// StateArena::content_hash (explore's intern-path hot loop):
//   acc  = Σ_i mix64(w_i ^ (seed + (i+1) * kHashPhi))   (mod 2^64)
//   hash = hash_combine(hash_combine(seed, n), acc)
inline std::uint64_t hash_words(const std::int64_t* w, std::size_t n,
                                std::uint64_t seed) noexcept {
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += mix64(static_cast<std::uint64_t>(w[i]) ^
                 (seed + (static_cast<std::uint64_t>(i) + 1) * kHashPhi));
  }
  return hash_combine(hash_combine(seed, n), acc);
}

// Same hash over n 32-bit lanes, each sign-extended to 64 bits first
// (locals/decisions sections; matches static_cast<std::int64_t> on the
// lane value).
inline std::uint64_t hash_lanes(const std::int32_t* v, std::size_t n,
                                std::uint64_t seed) noexcept {
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += mix64(static_cast<std::uint64_t>(static_cast<std::int64_t>(v[i])) ^
                 (seed + (static_cast<std::uint64_t>(i) + 1) * kHashPhi));
  }
  return hash_combine(hash_combine(seed, n), acc);
}

// One level of bitmap BFS over `nwords`-word sets: for every word,
//   fresh      = next & ~visited
//   visited   |= fresh
//   next       = 0
// and the bit indices of every fresh word are appended to `out` in
// ascending order. Returns the number of fresh bits (out must have room
// for 64 * nwords entries in the worst case).
inline std::size_t frontier_advance(std::uint64_t* next,
                                    std::uint64_t* visited, std::size_t nwords,
                                    std::uint32_t* out) noexcept {
  std::size_t count = 0;
  for (std::size_t w = 0; w < nwords; ++w) {
    std::uint64_t fresh = next[w] & ~visited[w];
    next[w] = 0;
    if (fresh == 0) continue;
    visited[w] |= fresh;
    const auto base = static_cast<std::uint32_t>(w * 64);
    do {
      out[count++] =
          base + static_cast<std::uint32_t>(std::countr_zero(fresh));
      fresh &= fresh - 1;
    } while (fresh != 0);
  }
  return count;
}

}  // namespace lacon::simd
