// Reference-definition checks for the flat-encoding kernels (DESIGN.md §13).
//
// util/simd.hpp holds one implementation of each kernel, called inline by
// the arena, the models and the bitset. Each case below checks it against
// an independent definition on randomized inputs across the shapes that
// matter: odd/even lane tails (n = 2..10), negative 32-bit lanes (sign
// extension into the hash), empty, sparse and full bitsets, and word counts
// from 1 to 17. The last three cases check the kernels where the analysis
// uses them: agree_modulo against raw payloads, drain_fresh_into against
// std::set, and Graph::diameter against the distance matrix.
//
// ci.sh runs this binary under TSan and ASan in the fault-soak lane.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <random>
#include <set>
#include <vector>

#include "core/state.hpp"
#include "relation/graph.hpp"
#include "util/bitset.hpp"
#include "util/hash.hpp"
#include "util/simd.hpp"

namespace lacon {
namespace {

std::vector<std::int32_t> random_lanes(std::mt19937_64& rng, std::size_t n) {
  // Mix small non-negative ids, kUndecided (-1) and arbitrary negatives:
  // the fingerprint kernel must sign-extend exactly like the per-lane fold.
  std::uniform_int_distribution<int> pick(0, 3);
  std::uniform_int_distribution<std::int32_t> any(
      std::numeric_limits<std::int32_t>::min(),
      std::numeric_limits<std::int32_t>::max());
  std::uniform_int_distribution<std::int32_t> small(0, 40);
  std::vector<std::int32_t> out(n);
  for (auto& v : out) {
    switch (pick(rng)) {
      case 0: v = -1; break;
      case 1: v = any(rng); break;
      default: v = small(rng); break;
    }
  }
  return out;
}

std::vector<std::uint64_t> random_words(std::mt19937_64& rng, std::size_t n) {
  std::vector<std::uint64_t> out(n);
  for (auto& w : out) w = rng();
  return out;
}

TEST(SimdKernels, WordsEqualMatchesScalar) {
  std::mt19937_64 rng(0x7264731201u);
  for (std::size_t n : {0u, 1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 16u, 33u}) {
    for (int round = 0; round < 20; ++round) {
      auto a = random_words(rng, n);
      auto b = a;
      const auto* pa = reinterpret_cast<const std::int64_t*>(a.data());
      const auto* pb = reinterpret_cast<const std::int64_t*>(b.data());
      EXPECT_TRUE(simd::words_equal(pa, pb, n)) << "n=" << n;
      if (n == 0) continue;
      b[rng() % n] ^= 1ull << (rng() % 64);
      EXPECT_FALSE(simd::words_equal(pa, pb, n)) << "n=" << n;
    }
  }
}

TEST(SimdKernels, LanesEqualSkipMatchesScalar) {
  std::mt19937_64 rng(0x7264731202u);
  for (std::size_t n = 2; n <= 18; ++n) {
    for (int round = 0; round < 30; ++round) {
      const auto a = random_lanes(rng, n);
      auto b = a;
      const std::size_t skip = rng() % n;
      EXPECT_TRUE(simd::lanes_equal_skip(a.data(), b.data(), n, skip));
      EXPECT_TRUE(
          simd::lanes_equal_skip(a.data(), b.data(), n, simd::kNoSkip));
      // A difference only at the erased lane is invisible with that skip,
      // a mismatch everywhere else.
      b[skip] ^= 0x40;
      EXPECT_TRUE(simd::lanes_equal_skip(a.data(), b.data(), n, skip))
          << "n=" << n << " skip=" << skip;
      EXPECT_FALSE(
          simd::lanes_equal_skip(a.data(), b.data(), n, simd::kNoSkip));
      EXPECT_FALSE(
          simd::lanes_equal_skip(a.data(), b.data(), n, (skip + 1) % n));
      b = a;
      const std::size_t other = rng() % n;
      b[other] += 3;
      EXPECT_EQ(simd::lanes_equal_skip(a.data(), b.data(), n, skip),
                skip == other)
          << "n=" << n;
    }
  }
}

// The documented definition: per erased coordinate j, fold hash_combine over
// all sign-extended lanes i != j in increasing i (relation_test's
// reference_fingerprint with `seed` standing in for the env hash).
std::uint64_t reference_fingerprint(std::uint64_t seed,
                                    const std::vector<std::int32_t>& locals,
                                    const std::vector<std::int32_t>& decisions,
                                    std::size_t j) {
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < locals.size(); ++i) {
    if (i == j) continue;
    h = hash_combine(h, static_cast<std::uint64_t>(
                            static_cast<std::int64_t>(locals[i])));
    h = hash_combine(h, static_cast<std::uint64_t>(
                            static_cast<std::int64_t>(decisions[i])));
  }
  return h;
}

TEST(SimdKernels, FingerprintLanesMatchesPerLaneFold) {
  std::mt19937_64 rng(0x7264731203u);
  for (std::size_t n = 2; n <= 10; ++n) {
    for (int round = 0; round < 40; ++round) {
      const auto locals = random_lanes(rng, n);
      const auto decisions = random_lanes(rng, n);
      const std::uint64_t seed = rng();
      std::vector<std::uint64_t> row(n, 0);
      simd::fingerprint_lanes(seed, locals.data(), decisions.data(), n,
                              row.data());
      for (std::size_t j = 0; j < n; ++j) {
        EXPECT_EQ(row[j], reference_fingerprint(seed, locals, decisions, j))
            << "n=" << n << " j=" << j;
      }
    }
  }
}

// The documented definition of the position-keyed content hash sections:
// acc = Σ_i mix64(w_i ^ (seed + (i+1)*kHashPhi)), then fold seed and length
// through hash_combine (util/simd.hpp hash_words/hash_lanes).
std::uint64_t reference_section_hash(const std::vector<std::uint64_t>& words,
                                     std::uint64_t seed) {
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < words.size(); ++i) {
    acc += mix64(words[i] ^
                 (seed + (static_cast<std::uint64_t>(i) + 1) * simd::kHashPhi));
  }
  return hash_combine(hash_combine(seed, words.size()), acc);
}

TEST(SimdKernels, HashWordsMatchesReferenceDefinition) {
  std::mt19937_64 rng(0x726473120au);
  for (std::size_t n : {0u, 1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 16u, 33u}) {
    for (int round = 0; round < 20; ++round) {
      const auto w = random_words(rng, n);
      const std::uint64_t seed = rng();
      EXPECT_EQ(simd::hash_words(
                    reinterpret_cast<const std::int64_t*>(w.data()), n, seed),
                reference_section_hash(w, seed))
          << "n=" << n;
    }
  }
}

TEST(SimdKernels, HashLanesSignExtendsLikeScalarCast) {
  std::mt19937_64 rng(0x726473120bu);
  for (std::size_t n : {0u, 1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 17u}) {
    for (int round = 0; round < 30; ++round) {
      const auto v = random_lanes(rng, n);  // mixes negatives and -1
      const std::uint64_t seed = rng();
      std::vector<std::uint64_t> widened(n);
      for (std::size_t i = 0; i < n; ++i) {
        widened[i] =
            static_cast<std::uint64_t>(static_cast<std::int64_t>(v[i]));
      }
      EXPECT_EQ(simd::hash_lanes(v.data(), n, seed),
                reference_section_hash(widened, seed))
          << "n=" << n;
    }
  }
}

TEST(SimdKernels, FrontierAdvanceMatchesScalar) {
  std::mt19937_64 rng(0x7264731205u);
  for (std::size_t n : {1u, 2u, 3u, 4u, 5u, 8u, 9u, 16u, 17u}) {
    for (int density = 0; density < 4; ++density) {
      auto next = random_words(rng, n);
      if (density == 0) std::fill(next.begin(), next.end(), 0);
      if (density == 1) {  // sparse: one bit in one word
        std::fill(next.begin(), next.end(), 0);
        next[rng() % n] = 1ull << (rng() % 64);
      }
      if (density == 3) std::fill(next.begin(), next.end(), ~0ull);
      const auto visited = random_words(rng, n);

      // Reference: bit by bit, fresh = in next and not yet visited.
      std::set<std::uint32_t> fresh;
      std::vector<std::uint64_t> visited_want = visited;
      for (std::size_t bit = 0; bit < n * 64; ++bit) {
        const std::uint64_t mask = 1ull << (bit % 64);
        if ((next[bit / 64] & mask) != 0 &&
            (visited[bit / 64] & mask) == 0) {
          fresh.insert(static_cast<std::uint32_t>(bit));
          visited_want[bit / 64] |= mask;
        }
      }

      auto next_got = next;
      auto visited_got = visited;
      std::vector<std::uint32_t> out(n * 64, 0);
      const std::size_t count = simd::frontier_advance(
          next_got.data(), visited_got.data(), n, out.data());

      ASSERT_EQ(count, fresh.size()) << "n=" << n;
      out.resize(count);
      EXPECT_EQ(out, std::vector<std::uint32_t>(fresh.begin(), fresh.end()))
          << "n=" << n;
      EXPECT_EQ(next_got, std::vector<std::uint64_t>(n, 0));
      EXPECT_EQ(visited_got, visited_want);
    }
  }
}

TEST(SimdKernels, AgreeModuloMatchesReferenceDefinition) {
  std::mt19937_64 rng(0x7264731206u);
  for (int n = 2; n <= 9; ++n) {
    StateArena arena;
    std::vector<StateId> ids;
    std::vector<GlobalState> raw;
    for (int s = 0; s < 24; ++s) {
      GlobalState g;
      const std::size_t env_len = rng() % 4;
      g.env.resize(env_len);
      for (auto& w : g.env) {
        w = static_cast<std::int64_t>(rng() % 3);  // force env collisions
      }
      const auto nn = static_cast<std::size_t>(n);
      g.locals.resize(nn);
      g.decisions.resize(nn);
      for (auto& v : g.locals) v = static_cast<ViewId>(rng() % 3) - 1;
      for (auto& v : g.decisions) v = static_cast<Value>(rng() % 2) - 1;
      raw.push_back(g);
      ids.push_back(arena.intern(std::move(g)));
    }
    for (int round = 0; round < 200; ++round) {
      const std::size_t a = rng() % ids.size();
      const std::size_t b = rng() % ids.size();
      const auto j = static_cast<ProcessId>(rng() % n);
      // Reference: the loop definition over the raw (vector-backed)
      // payloads, independent of any kernel.
      bool want = raw[a].env == raw[b].env;
      for (ProcessId i = 0; i < n && want; ++i) {
        if (i == j) continue;
        const auto idx = static_cast<std::size_t>(i);
        want = raw[a].locals[idx] == raw[b].locals[idx] &&
               raw[a].decisions[idx] == raw[b].decisions[idx];
      }
      EXPECT_EQ(agree_modulo(arena.state(ids[a]), arena.state(ids[b]), j),
                want)
          << "n=" << n;
      // Interning is content-addressed: ref equality iff one id.
      EXPECT_EQ(arena.state(ids[a]) == arena.state(ids[b]), ids[a] == ids[b]);
    }
  }
}

TEST(SimdBitset, DrainFreshMatchesInsertSemantics) {
  std::mt19937_64 rng(0x7264731208u);
  const std::size_t universe = 500;
  DenseBitset visited, next;
  visited.reset(universe);
  next.reset(universe);
  std::set<std::size_t> seen;
  std::vector<std::uint32_t> out(universe);
  for (int level = 0; level < 20; ++level) {
    std::set<std::size_t> fresh_want;
    for (int m = 0; m < 40; ++m) {
      const std::size_t i = rng() % universe;
      next.mark(i);
      if (seen.insert(i).second) fresh_want.insert(i);
    }
    const std::size_t count = next.drain_fresh_into(visited, out.data());
    ASSERT_EQ(count, fresh_want.size());
    EXPECT_TRUE(std::equal(out.begin(),
                           out.begin() + static_cast<std::ptrdiff_t>(count),
                           fresh_want.begin()));
    EXPECT_TRUE(next.empty());
    EXPECT_EQ(visited.size(), seen.size());
  }
}

// Graph::diameter (bitmap BFS over drain_fresh_into) on random graphs,
// against the distance-matrix definition.
TEST(SimdEndToEnd, DiameterMatchesDistanceDefinition) {
  std::mt19937_64 rng(0x7264731209u);
  for (int round = 0; round < 12; ++round) {
    const std::size_t n = 2 + rng() % 60;
    Graph g(n);
    for (std::size_t a = 0; a < n; ++a) {
      for (std::size_t b = a + 1; b < n; ++b) {
        if (rng() % 5 == 0) g.add_edge(a, b);
      }
    }
    // Reference via pairwise distances (queue BFS path, kernel-free).
    std::optional<std::size_t> want = 0;
    for (std::size_t a = 0; a < n && want; ++a) {
      for (std::size_t b = 0; b < n && want; ++b) {
        const auto d = g.distance(a, b);
        if (!d) {
          want = std::nullopt;
        } else {
          want = std::max(*want, *d);
        }
      }
    }
    EXPECT_EQ(g.diameter(), want) << "n=" << n;
    EXPECT_EQ(g.connected(), want.has_value());
  }
}

}  // namespace
}  // namespace lacon
