// Scalar-vs-SIMD equivalence for the kernel library (DESIGN.md §13).
//
// The scalar kernels in util/simd.hpp are the semantic definition; every
// other table runtime/simd_dispatch.cc can hand out must be bit-identical
// on every input — same booleans, same fingerprints, same bit sets, same
// frontier orders. The randomized suites below compare each available table
// against scalar across the shapes that matter: odd/even lane tails
// (n = 2..10), negative 32-bit lanes (sign extension into the hash), empty
// and full bitsets, and word counts straddling the vector width. The
// end-to-end case locks the whole analysis output (explore + similarity +
// diameter) to the scalar path per kernel table.
//
// ci.sh runs this binary under TSan and ASan in the fault-soak lane, and
// the plain lane re-runs the analysis-facing suites with LACON_SIMD=scalar
// exported, so both dispatch outcomes stay green.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <random>
#include <set>
#include <vector>

#include "analysis/reports.hpp"
#include "core/model.hpp"
#include "core/state.hpp"
#include "engine/explore.hpp"
#include "relation/graph.hpp"
#include "relation/similarity.hpp"
#include "runtime/simd_dispatch.hpp"
#include "runtime/thread_pool.hpp"
#include "util/bitset.hpp"
#include "util/hash.hpp"

namespace lacon {
namespace {

using simd::Kernels;

// Every table this host can execute, scalar first. At minimum {scalar};
// on the CI x86 hosts {scalar, avx2}.
std::vector<const Kernels*> available_tables() {
  std::vector<const Kernels*> out = {&simd::scalar_kernels()};
  if (const Kernels* k = simd::kernels_for(simd::Isa::kAvx2)) {
    out.push_back(k);
  }
  return out;
}

std::vector<std::int32_t> random_lanes(std::mt19937_64& rng, std::size_t n) {
  // Mix small non-negative ids, kUndecided (-1) and arbitrary negatives:
  // the fingerprint kernel must sign-extend exactly like the scalar fold.
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

TEST(SimdDispatch, ParseChoice) {
  EXPECT_EQ(simd::parse_choice(nullptr), simd::Choice::kAuto);
  EXPECT_EQ(simd::parse_choice(""), simd::Choice::kAuto);
  EXPECT_EQ(simd::parse_choice("auto"), simd::Choice::kAuto);
  EXPECT_EQ(simd::parse_choice("scalar"), simd::Choice::kScalar);
  EXPECT_EQ(simd::parse_choice("avx2"), simd::Choice::kAvx2);
  EXPECT_EQ(simd::parse_choice("neon"), simd::Choice::kMalformed);
  EXPECT_EQ(simd::parse_choice("AVX2"), simd::Choice::kMalformed);
  EXPECT_EQ(simd::parse_choice("sse"), simd::Choice::kMalformed);
  EXPECT_EQ(simd::parse_choice(" scalar"), simd::Choice::kMalformed);
}

TEST(SimdDispatch, TablesAndOverride) {
  EXPECT_STREQ(simd::scalar_kernels().name, "scalar");
  EXPECT_EQ(simd::kernels_for(simd::Isa::kScalar), &simd::scalar_kernels());
  for (const Kernels* k : available_tables()) {
    ASSERT_NE(k, nullptr);
    simd::KernelOverride override_k(*k);
    EXPECT_STREQ(simd::active_name(), k->name);
    {
      simd::KernelOverride nested(simd::scalar_kernels());
      EXPECT_STREQ(simd::active_name(), "scalar");
    }
    EXPECT_STREQ(simd::active_name(), k->name);  // nesting restores
  }
  // host_supports gates kernels_for: a table exists iff the host runs it.
  EXPECT_EQ(simd::kernels_for(simd::Isa::kAvx2) != nullptr,
            simd::host_supports(simd::Isa::kAvx2));
}

TEST(SimdKernels, WordsEqualMatchesScalar) {
  std::mt19937_64 rng(0x7264731201u);
  for (const Kernels* k : available_tables()) {
    for (std::size_t n : {0u, 1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 16u, 33u}) {
      for (int round = 0; round < 20; ++round) {
        auto a = random_words(rng, n);
        auto b = a;
        const auto* pa = reinterpret_cast<const std::int64_t*>(a.data());
        const auto* pb = reinterpret_cast<const std::int64_t*>(b.data());
        EXPECT_TRUE(k->words_equal(pa, pb, n)) << k->name << " n=" << n;
        if (n == 0) continue;
        b[rng() % n] ^= 1ull << (rng() % 64);
        EXPECT_FALSE(k->words_equal(pa, pb, n)) << k->name << " n=" << n;
      }
    }
  }
}

TEST(SimdKernels, LanesEqualSkipMatchesScalar) {
  std::mt19937_64 rng(0x7264731202u);
  for (const Kernels* k : available_tables()) {
    for (std::size_t n = 2; n <= 18; ++n) {
      for (int round = 0; round < 30; ++round) {
        const auto a = random_lanes(rng, n);
        auto b = a;
        const std::size_t skip = rng() % n;
        EXPECT_TRUE(k->lanes_equal_skip(a.data(), b.data(), n, skip));
        EXPECT_TRUE(k->lanes_equal_skip(a.data(), b.data(), n, simd::kNoSkip));
        // A difference only at the erased lane is invisible with that skip,
        // a mismatch everywhere else.
        b[skip] ^= 0x40;
        EXPECT_TRUE(k->lanes_equal_skip(a.data(), b.data(), n, skip))
            << k->name << " n=" << n << " skip=" << skip;
        EXPECT_FALSE(
            k->lanes_equal_skip(a.data(), b.data(), n, simd::kNoSkip));
        EXPECT_FALSE(
            k->lanes_equal_skip(a.data(), b.data(), n, (skip + 1) % n));
        b = a;
        const std::size_t other = rng() % n;
        b[other] += 3;
        EXPECT_EQ(k->lanes_equal_skip(a.data(), b.data(), n, skip),
                  skip == other)
            << k->name << " n=" << n;
      }
    }
  }
}

// The documented definition: per erased coordinate j, fold hash_combine over
// all sign-extended lanes i != j in increasing i (core/model.cc's
// similarity_fingerprint with `seed` standing in for the env hash).
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
  for (const Kernels* k : available_tables()) {
    for (std::size_t n = 2; n <= 10; ++n) {
      for (int round = 0; round < 40; ++round) {
        const auto locals = random_lanes(rng, n);
        const auto decisions = random_lanes(rng, n);
        const std::uint64_t seed = rng();
        std::vector<std::uint64_t> row(n, 0);
        k->fingerprint_lanes(seed, locals.data(), decisions.data(), n,
                             row.data());
        for (std::size_t j = 0; j < n; ++j) {
          EXPECT_EQ(row[j], reference_fingerprint(seed, locals, decisions, j))
              << k->name << " n=" << n << " j=" << j;
        }
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
  for (const Kernels* k : available_tables()) {
    for (std::size_t n : {0u, 1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 16u, 33u}) {
      for (int round = 0; round < 20; ++round) {
        const auto w = random_words(rng, n);
        const std::uint64_t seed = rng();
        const std::uint64_t got = k->hash_words(
            reinterpret_cast<const std::int64_t*>(w.data()), n, seed);
        EXPECT_EQ(got, reference_section_hash(w, seed))
            << k->name << " n=" << n;
        // Scalar is the definition — every table must agree with it too.
        EXPECT_EQ(got, simd::scalar_kernels().hash_words(
                           reinterpret_cast<const std::int64_t*>(w.data()), n,
                           seed))
            << k->name << " n=" << n;
      }
    }
  }
}

TEST(SimdKernels, HashLanesSignExtendsLikeScalarCast) {
  std::mt19937_64 rng(0x726473120bu);
  for (const Kernels* k : available_tables()) {
    for (std::size_t n : {0u, 1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 17u}) {
      for (int round = 0; round < 30; ++round) {
        const auto v = random_lanes(rng, n);  // mixes negatives and -1
        const std::uint64_t seed = rng();
        std::vector<std::uint64_t> widened(n);
        for (std::size_t i = 0; i < n; ++i) {
          widened[i] =
              static_cast<std::uint64_t>(static_cast<std::int64_t>(v[i]));
        }
        EXPECT_EQ(k->hash_lanes(v.data(), n, seed),
                  reference_section_hash(widened, seed))
            << k->name << " n=" << n;
      }
    }
  }
}

// StateArena::content_hash chains the three sections through the active
// table; every table must therefore produce the same state hash (the intern
// index depends on it).
TEST(SimdKernels, ContentHashIdenticalAcrossTables) {
  std::mt19937_64 rng(0x726473120cu);
  for (int n = 1; n <= 9; ++n) {
    GlobalState g;
    g.env.resize(rng() % 5);
    for (auto& w : g.env) w = static_cast<std::int64_t>(rng());
    const auto nn = static_cast<std::size_t>(n);
    const auto locals = random_lanes(rng, nn);
    const auto decisions = random_lanes(rng, nn);
    g.locals.assign(locals.begin(), locals.end());
    g.decisions.assign(decisions.begin(), decisions.end());
    std::uint64_t want = 0;
    bool first = true;
    for (const Kernels* k : available_tables()) {
      simd::KernelOverride override_k(*k);
      const std::uint64_t got = StateArena::content_hash(g);
      if (first) {
        want = got;
        first = false;
      }
      EXPECT_EQ(got, want) << k->name << " n=" << n;
    }
  }
}

TEST(SimdKernels, BitsetOpsMatchScalar) {
  std::mt19937_64 rng(0x7264731204u);
  const auto& ref = simd::scalar_kernels();
  for (const Kernels* k : available_tables()) {
    for (std::size_t n : {0u, 1u, 2u, 3u, 4u, 5u, 8u, 9u, 16u, 17u, 40u}) {
      for (int fill = 0; fill < 3; ++fill) {
        auto src = random_words(rng, n);
        auto base = random_words(rng, n);
        if (fill == 1) std::fill(src.begin(), src.end(), 0);      // empty
        if (fill == 2) std::fill(src.begin(), src.end(), ~0ull);  // full
        for (auto op : {&Kernels::bitset_or, &Kernels::bitset_and,
                        &Kernels::bitset_andnot}) {
          auto got = base;
          auto want = base;
          (k->*op)(got.data(), src.data(), n);
          (ref.*op)(want.data(), src.data(), n);
          EXPECT_EQ(got, want) << k->name << " n=" << n;
        }
        EXPECT_EQ(k->bitset_popcount(src.data(), n),
                  ref.bitset_popcount(src.data(), n));
        EXPECT_EQ(k->bitset_find_first(src.data(), n),
                  ref.bitset_find_first(src.data(), n));
        // find_first across every word position, one sparse bit.
        if (n != 0) {
          std::vector<std::uint64_t> sparse(n, 0);
          const std::size_t w = rng() % n;
          sparse[w] = 1ull << (rng() % 64);
          EXPECT_EQ(k->bitset_find_first(sparse.data(), n),
                    ref.bitset_find_first(sparse.data(), n));
          EXPECT_EQ(k->bitset_popcount(sparse.data(), n), 1u);
        }
      }
    }
  }
}

TEST(SimdKernels, FrontierAdvanceMatchesScalar) {
  std::mt19937_64 rng(0x7264731205u);
  const auto& ref = simd::scalar_kernels();
  for (const Kernels* k : available_tables()) {
    for (std::size_t n : {1u, 2u, 3u, 4u, 5u, 8u, 9u, 16u, 17u}) {
      for (int density = 0; density < 4; ++density) {
        auto next = random_words(rng, n);
        if (density == 0) std::fill(next.begin(), next.end(), 0);
        if (density == 1) {  // sparse: exercise the zero-block skip
          std::fill(next.begin(), next.end(), 0);
          next[rng() % n] = 1ull << (rng() % 64);
        }
        if (density == 3) std::fill(next.begin(), next.end(), ~0ull);
        const auto visited = random_words(rng, n);

        auto next_got = next;
        auto visited_got = visited;
        std::vector<std::uint32_t> out_got(n * 64, 0);
        const std::size_t count_got = k->frontier_advance(
            next_got.data(), visited_got.data(), n, out_got.data());

        auto next_want = next;
        auto visited_want = visited;
        std::vector<std::uint32_t> out_want(n * 64, 0);
        const std::size_t count_want = ref.frontier_advance(
            next_want.data(), visited_want.data(), n, out_want.data());

        ASSERT_EQ(count_got, count_want) << k->name << " n=" << n;
        out_got.resize(count_got);
        out_want.resize(count_want);
        EXPECT_EQ(out_got, out_want) << k->name << " n=" << n;
        EXPECT_EQ(next_got, next_want);
        EXPECT_EQ(visited_got, visited_want);
        EXPECT_TRUE(std::is_sorted(out_got.begin(), out_got.end()));
      }
    }
  }
}

TEST(SimdKernels, AgreeModuloMatchesReferenceDefinition) {
  std::mt19937_64 rng(0x7264731206u);
  for (const Kernels* k : available_tables()) {
    simd::KernelOverride override_k(*k);
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
            << k->name << " n=" << n;
        // Interning is content-addressed: ref equality iff one id.
        EXPECT_EQ(arena.state(ids[a]) == arena.state(ids[b]),
                  ids[a] == ids[b]);
      }
    }
  }
}

TEST(SimdBitset, DenseBitsetBulkOpsMatchSetSemantics) {
  std::mt19937_64 rng(0x7264731207u);
  for (const Kernels* k : available_tables()) {
    simd::KernelOverride override_k(*k);
    for (int round = 0; round < 30; ++round) {
      const std::size_t universe = 1 + rng() % 300;
      DenseBitset a, b;
      std::set<std::size_t> sa, sb;
      for (std::size_t i = 0; i < universe; ++i) {
        if (rng() % 2) {
          a.insert(i);
          sa.insert(i);
        }
        if (rng() % 4 == 0) {
          b.insert(i);
          sb.insert(i);
        }
      }
      ASSERT_EQ(a.size(), sa.size());
      const int op = round % 3;
      std::set<std::size_t> want;
      if (op == 0) {
        a.or_with(b);
        std::set_union(sa.begin(), sa.end(), sb.begin(), sb.end(),
                       std::inserter(want, want.end()));
      } else if (op == 1) {
        a.and_with(b);
        std::set_intersection(sa.begin(), sa.end(), sb.begin(), sb.end(),
                              std::inserter(want, want.end()));
      } else {
        a.subtract(b);
        std::set_difference(sa.begin(), sa.end(), sb.begin(), sb.end(),
                            std::inserter(want, want.end()));
      }
      EXPECT_EQ(a.size(), want.size()) << k->name << " op=" << op;
      for (std::size_t i = 0; i < universe + 64; ++i) {
        ASSERT_EQ(a.contains(i), want.count(i) != 0)
            << k->name << " op=" << op << " i=" << i;
      }
      EXPECT_EQ(a.find_first(),
                want.empty() ? simd::kNpos : *want.begin());
    }
  }
}

TEST(SimdBitset, DrainFreshMatchesInsertSemantics) {
  std::mt19937_64 rng(0x7264731208u);
  for (const Kernels* k : available_tables()) {
    simd::KernelOverride override_k(*k);
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
      ASSERT_EQ(count, fresh_want.size()) << k->name;
      EXPECT_TRUE(std::equal(out.begin(),
                             out.begin() + static_cast<std::ptrdiff_t>(count),
                             fresh_want.begin()));
      EXPECT_TRUE(next.empty());
      EXPECT_EQ(visited.size(), seen.size());
    }
  }
}

// End-to-end identity: the full analysis pipeline — explore, fingerprint
// rows, similarity graph, diameter — produces byte-identical results under
// every kernel table. One worker pins the interning order so ids are
// comparable across the model instances.
TEST(SimdEndToEnd, AnalysisOutputIdenticalAcrossTables) {
  runtime::WorkerCountOverride workers(1);
  struct Result {
    std::size_t states = 0;
    std::vector<std::uint64_t> rows;
    std::size_t edges = 0;
    bool connected = false;
    std::optional<std::size_t> diameter;
  };
  auto run = [](const Kernels& k) {
    simd::KernelOverride override_k(k);
    auto rule = min_after_round(2);
    auto model = make_model(ModelKind::kMobile, 3, 1, *rule);
    const auto levels = reachable_by_depth(*model, 2);
    const std::vector<StateId>& frontier = levels.back();
    Result r;
    r.states = model->num_states();
    for (std::size_t id = 0; id < model->num_states(); ++id) {
      const std::uint64_t* row =
          model->fingerprint_row(static_cast<StateId>(id));
      r.rows.insert(r.rows.end(), row, row + model->n());
    }
    const Graph g = similarity_graph(*model, frontier);
    r.edges = g.edge_count();
    r.connected = g.connected();
    r.diameter = g.diameter();
    return r;
  };
  const Result want = run(simd::scalar_kernels());
  EXPECT_GT(want.states, 0u);
  for (const Kernels* k : available_tables()) {
    const Result got = run(*k);
    EXPECT_EQ(got.states, want.states) << k->name;
    EXPECT_EQ(got.rows, want.rows) << k->name;
    EXPECT_EQ(got.edges, want.edges) << k->name;
    EXPECT_EQ(got.connected, want.connected) << k->name;
    EXPECT_EQ(got.diameter, want.diameter) << k->name;
  }
}

// Graph::diameter under each table on random graphs, against the
// distance-matrix definition.
TEST(SimdEndToEnd, DiameterMatchesDistanceDefinition) {
  std::mt19937_64 rng(0x7264731209u);
  for (const Kernels* k : available_tables()) {
    simd::KernelOverride override_k(*k);
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
      EXPECT_EQ(g.diameter(), want) << k->name << " n=" << n;
      EXPECT_EQ(g.connected(), want.has_value()) << k->name;
    }
  }
}

}  // namespace
}  // namespace lacon
