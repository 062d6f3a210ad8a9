// Concurrency and flat-storage tests for the hash-consing arenas
// (core/state.hpp, core/view.hpp) and their supporting runtime pieces
// (runtime/word_pool.hpp, ConcurrentSlotVector). The stress tests and the
// publication test run under the TSan CI lane (ci.sh), which is where the
// lock-free readers earn their keep.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <new>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/hash_index.hpp"
#include "core/state.hpp"
#include "core/view.hpp"
#include "runtime/fault.hpp"
#include "runtime/word_pool.hpp"
#include "util/hash.hpp"

namespace lacon {
namespace {

constexpr int kThreads = 8;

// Deterministic state generator: varies env length (including empty) and
// process count (including odd counts, which exercise the packed-lane
// padding of the flat encoding). Locals are arbitrary ids — StateArena
// never dereferences them.
GlobalState make_state(std::uint64_t i) {
  GlobalState s;
  const std::size_t env_len = i % 5;
  const std::size_t n = 2 + i % 7;  // 2..8
  for (std::size_t e = 0; e < env_len; ++e) {
    s.env.push_back(static_cast<std::int64_t>(mix64(i * 31 + e)));
  }
  for (std::size_t p = 0; p < n; ++p) {
    s.locals.push_back(static_cast<ViewId>(mix64(i + p) & 0xffff));
    s.decisions.push_back(p % 3 == 0 ? static_cast<Value>(i % 2) : kUndecided);
  }
  return s;
}

// Sorted multiset of the content hashes of every interned state.
std::vector<std::uint64_t> content_hashes(const StateArena& arena) {
  std::vector<std::uint64_t> hashes;
  hashes.reserve(arena.size());
  for (std::size_t id = 0; id < arena.size(); ++id) {
    hashes.push_back(
        StateArena::content_hash(arena.state(static_cast<StateId>(id))));
  }
  std::sort(hashes.begin(), hashes.end());
  return hashes;
}

TEST(WordPoolTest, RegionsNeverSpanChunks) {
  runtime::WordPool pool;
  constexpr std::size_t kChunk = runtime::WordPool::kMaxRegionWords;
  // The first two regions fill chunk 0 exactly; the third starts chunk 1,
  // whose tail (kChunk - 1 words) cannot hold the fourth, a full chunk.
  const std::size_t lens[] = {10, kChunk - 10, 1, kChunk};
  std::vector<std::int64_t*> regions;
  for (const std::size_t len : lens) regions.push_back(pool.alloc(len));
  EXPECT_EQ(regions[1], regions[0] + 10);
  // Every word of every region is written (ASan checks that each lies in
  // a chunk), then read back: no region overlaps another.
  for (std::size_t r = 0; r < regions.size(); ++r) {
    std::fill_n(regions[r], lens[r], static_cast<std::int64_t>(r));
  }
  for (std::size_t r = 0; r < regions.size(); ++r) {
    EXPECT_EQ(std::count(regions[r], regions[r] + lens[r],
                         static_cast<std::int64_t>(r)),
              static_cast<std::ptrdiff_t>(lens[r]))
        << "region " << r;
  }
}

// A region larger than a chunk is refused before anything is claimed: the
// next region still continues the current chunk.
TEST(WordPoolTest, OversizedRegionThrowsAndClaimsNothing) {
  runtime::WordPool pool;
  std::int64_t* a = pool.alloc(3);
  EXPECT_THROW(pool.alloc(runtime::WordPool::kMaxRegionWords + 1),
               std::bad_alloc);
  EXPECT_EQ(pool.alloc(5), a + 3);
}

// A view or state whose region would exceed one chunk is refused with
// std::bad_alloc before anything is interned; the largest that fits is
// interned whole.
TEST(ArenaRegionLimitTest, OversizedContentThrowsAndInternsNothing) {
  constexpr std::size_t kMax = runtime::WordPool::kMaxRegionWords;
  ViewArena views(3);
  const ViewId v0 = views.initial(0, 1);
  const std::size_t bytes = views.approx_bytes();
  // (3 known-input lanes + 5 head lanes + 2 * 65,532 + 1) / 2 = kMax words.
  const std::vector<Obs> fits(kMax - 4, Obs{2, kNoView});
  const std::vector<Obs> over(kMax - 3, Obs{2, kNoView});
  EXPECT_THROW(views.extend(v0, over), std::bad_alloc);
  EXPECT_EQ(views.size(), 1u);
  EXPECT_EQ(views.approx_bytes(), bytes);
  const ViewId big = views.extend(v0, fits);
  EXPECT_EQ(views.node(big).obs.size(), fits.size());
  EXPECT_EQ(views.known_inputs(big)[0], 1);

  StateArena states;
  GlobalState s{std::vector<std::int64_t>(kMax - 3, 7), {0, 0, 0}, {0, 0, 0}};
  EXPECT_THROW(states.intern(s), std::bad_alloc);
  EXPECT_EQ(states.size(), 0u);
  s.env.pop_back();  // 65,532 env words + 2 * 2 lane words = kMax
  const StateId id = states.intern(s);
  EXPECT_EQ(states.state(id), StateRef(s));
}

// Distinct content can share a 64-bit hash: the index must keep every id
// stored under it, let the caller's equality pick among them, and keep
// them all through growth and wrap-around probing.
TEST(HashIndexTest, CollidingHashesKeepEveryId) {
  HashIndex<std::uint32_t> index;
  EXPECT_FALSE(index.find(7, [](std::uint32_t) { return true; }));
  constexpr std::uint32_t kIds = 1000;
  for (std::uint32_t id = 0; id < kIds; ++id) {
    index.insert(id % 3 == 0 ? 42 : mix64(id), id);  // a third collide
  }
  for (std::uint32_t id = 0; id < kIds; ++id) {
    const std::uint64_t h = id % 3 == 0 ? 42 : mix64(id);
    const auto found =
        index.find(h, [id](std::uint32_t candidate) { return candidate == id; });
    ASSERT_TRUE(found.has_value()) << id;
    EXPECT_EQ(*found, id);
  }
  EXPECT_FALSE(index.find(42, [](std::uint32_t id) { return id % 3 != 0; }));
  EXPECT_FALSE(index.find(mix64(kIds), [](std::uint32_t) { return true; }));

  // Distinct hashes that share one 32-bit tag, and with it one home slot at
  // every capacity: products with equal top 32 bits, each multiplied by
  // phi^-1 mod 2^64 so that h * phi (the index's Fibonacci product) gives
  // the product back.
  constexpr std::uint64_t kPhi = 0x9e3779b97f4a7c15ULL;
  constexpr std::uint64_t kTag = 0x5eedf00d;
  std::uint64_t phi_inv = kPhi;  // Newton's step doubles the exact low bits
  for (int step = 0; step < 6; ++step) phi_inv *= 2 - kPhi * phi_inv;
  ASSERT_EQ(kPhi * phi_inv, 1u);
  const auto tagged = [&](std::uint64_t k) {
    return ((kTag << 32) | k) * phi_inv;
  };
  HashIndex<std::uint32_t> shared;
  std::vector<std::uint64_t> hash_of;  // by id
  const auto check_all = [&] {
    for (std::uint32_t id = 0; id < hash_of.size(); ++id) {
      const auto found = shared.find(hash_of[id], [id](std::uint32_t c) {
        return c == id;
      });
      ASSERT_TRUE(found.has_value()) << id;
      EXPECT_EQ(*found, id);
    }
    // An absent hash with the shared tag probes the whole cluster and
    // finds nothing the equality check accepts.
    const std::uint64_t absent = tagged(0xffffffff);
    EXPECT_FALSE(shared.find(absent, [&](std::uint32_t c) {
      return hash_of[c] == absent;
    }));
  };
  // The table starts at 64 slots and doubles at 33, 65, 129, 257 and 513
  // entries; the checks fall between five different capacities.
  for (std::uint32_t id = 0; id < 600; ++id) {
    const std::uint64_t h = id % 4 == 0 ? tagged(id) : mix64(id);
    if (id % 4 == 0) {
      ASSERT_EQ((h * kPhi) >> 32, kTag);
      ASSERT_EQ(std::count(hash_of.begin(), hash_of.end(), h), 0);
    }
    shared.insert(h, id);
    hash_of.push_back(h);
    if (id + 1 == 40 || id + 1 == 70 || id + 1 == 140 || id + 1 == 300 ||
        id + 1 == 600) {
      check_all();
    }
  }
}

TEST(StateArenaTest, FlatStorageRoundTrips) {
  StateArena arena;
  for (std::uint64_t i = 0; i < 64; ++i) {
    const GlobalState original = make_state(i);
    const StateId id = arena.intern(original);
    const StateRef ref = arena.state(id);
    ASSERT_EQ(ref.env.size(), original.env.size());
    ASSERT_EQ(ref.locals.size(), original.locals.size());
    ASSERT_EQ(ref.decisions.size(), original.decisions.size());
    EXPECT_TRUE(ref == StateRef(original));
    EXPECT_EQ(StateArena::content_hash(ref),
              StateArena::content_hash(original));
  }
}

TEST(StateArenaTest, EmptyStateInternOk) {
  StateArena arena;
  const StateId a = arena.intern(GlobalState{});
  const StateId b = arena.intern(GlobalState{});
  EXPECT_EQ(a, b);
  EXPECT_EQ(arena.size(), 1u);
  EXPECT_TRUE(arena.state(a).env.empty());
  EXPECT_TRUE(arena.state(a).locals.empty());
}

TEST(StateArenaTest, ApproxBytesIsMonotoneAndContentDeterministic) {
  StateArena a1;
  StateArena a2;
  std::size_t last = 0;
  for (std::uint64_t i = 0; i < 200; ++i) {
    a1.intern(make_state(i));
    EXPECT_GE(a1.approx_bytes(), last);
    last = a1.approx_bytes();
  }
  // Same content set in a different order: identical accounting. This is
  // the invariant the guard's memory budget rests on (it reads the same
  // total however concurrent interns interleave).
  for (std::uint64_t i = 200; i-- > 0;) a2.intern(make_state(i));
  EXPECT_EQ(a1.approx_bytes(), a2.approx_bytes());
  // Re-interning existing content adds nothing.
  a1.intern(make_state(7));
  EXPECT_EQ(a1.approx_bytes(), last);
}

// N threads intern maximally overlapping key sets (every thread interns
// every state, in a thread-dependent order). The resulting arena must be
// indistinguishable — size, byte accounting, content-hash multiset — from a
// serial run over the same content, and every thread must have received the
// same id for the same content.
TEST(StateArenaTest, ParallelInternStressMatchesSerial) {
  constexpr std::uint64_t kStates = 1500;

  StateArena serial;
  for (std::uint64_t i = 0; i < kStates; ++i) serial.intern(make_state(i));

  StateArena arena;
  std::vector<std::vector<StateId>> ids(
      kThreads, std::vector<StateId>(kStates, 0));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint64_t k = 0; k < kStates; ++k) {
        const std::uint64_t i = (k + static_cast<std::uint64_t>(t) * 137) %
                                kStates;  // same set, skewed order
        ids[static_cast<std::size_t>(t)][i] = arena.intern(make_state(i));
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(arena.size(), serial.size());
  EXPECT_EQ(arena.approx_bytes(), serial.approx_bytes());
  EXPECT_EQ(content_hashes(arena), content_hashes(serial));
  // Racing interns of equal content agreed on one id.
  for (std::uint64_t i = 0; i < kStates; ++i) {
    for (int t = 1; t < kThreads; ++t) {
      EXPECT_EQ(ids[static_cast<std::size_t>(t)][i], ids[0][i]);
    }
    // ... and the id resolves to the right content.
    EXPECT_TRUE(arena.state(ids[0][i]) == StateRef(make_state(i)));
  }
}

TEST(ViewArenaTest, ParallelInternStressAgreesAcrossThreads) {
  constexpr int kChains = 40;
  constexpr int kDepth = 12;

  // Every thread builds every chain: initial(owner, input) extended kDepth
  // times with a chain-specific observation pattern. Equal content must
  // yield equal ids in every thread.
  ViewArena arena(4);
  std::vector<std::vector<ViewId>> tips(
      kThreads, std::vector<ViewId>(kChains, kNoView));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int k = 0; k < kChains; ++k) {
        const int c = (k + t * 7) % kChains;
        ViewId v = arena.initial(c % 4, (c / 4) % 2);
        for (int d = 0; d < kDepth; ++d) {
          std::vector<Obs> obs;
          for (std::int32_t src = 0; src < 4; ++src) {
            if (src == c % 4) continue;
            obs.push_back(Obs{src, ((c + d + src) % 3 == 0) ? v : kNoView});
          }
          v = arena.extend(v, obs);
        }
        tips[static_cast<std::size_t>(t)][static_cast<std::size_t>(c)] = v;
      }
    });
  }
  for (auto& th : threads) th.join();

  for (int c = 0; c < kChains; ++c) {
    for (int t = 1; t < kThreads; ++t) {
      EXPECT_EQ(tips[static_cast<std::size_t>(t)][static_cast<std::size_t>(c)],
                tips[0][static_cast<std::size_t>(c)]);
    }
  }
  // Serial rebuild of the same content interns nothing new.
  const std::size_t before = arena.size();
  ViewId v = arena.initial(0, 0);
  for (int d = 0; d < kDepth; ++d) {
    std::vector<Obs> obs;
    for (std::int32_t src = 1; src < 4; ++src) {
      obs.push_back(Obs{src, ((0 + d + src) % 3 == 0) ? v : kNoView});
    }
    v = arena.extend(v, obs);
  }
  EXPECT_EQ(arena.size(), before);
}

// The publication rule: an intern writes its content and only then raises
// size(). Reader threads walk every id below size() while writers intern
// into a StateArena and a ViewArena, taking no lock, and each id must
// already hold its content. Every item checks itself: a state's words and
// lanes are functions of its first env word, and a view extends its prev
// with one observation of it, keeping its owner and its input (>= 1, so an
// unwritten default node fails).
TEST(ArenaPublicationTest, EveryIdBelowSizeIsWritten) {
  constexpr int kWriters = 4;
  constexpr int kReaders = 4;
  constexpr std::uint64_t kKeys = 1200;  // per writer; neighbours overlap
  const auto make = [](std::uint64_t k) {
    GlobalState s;
    s.env = {static_cast<std::int64_t>(k), static_cast<std::int64_t>(mix64(k))};
    for (int j = 0; j < 3; ++j) {
      s.locals.push_back(static_cast<ViewId>(k % 1000 + j));
      s.decisions.push_back(k % 2 == 0 ? kUndecided : static_cast<Value>(j % 2));
    }
    return s;
  };
  const auto state_ok = [&](const StateRef& s) {
    return s.env.size() == 2 &&
           StateRef(make(static_cast<std::uint64_t>(s.env[0]))) == s;
  };
  StateArena states;
  ViewArena views(4);
  const auto view_ok = [&](ViewId id) {
    const ViewRef v = views.node(id);
    if (v.input < 1 || v.owner < 0 || v.owner >= 4) return false;
    if (v.prev == kNoView) return v.round == 0 && v.obs.empty();
    const ViewRef p = views.node(v.prev);
    return v.prev < id && v.round == p.round + 1 && v.owner == p.owner &&
           v.input == p.input && v.obs.size() == 1 &&
           v.obs[0] == Obs{v.round % 4, v.prev};
  };

  std::atomic<int> writing{kWriters};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      const std::uint64_t first = static_cast<std::uint64_t>(w) * kKeys / 2;
      for (std::uint64_t k = first; k < first + kKeys; ++k) {
        states.intern(make(k));
        ViewId v = views.initial(static_cast<ProcessId>(k % 4),
                                 static_cast<Value>(1 + k % 300));
        for (std::int32_t round = 1; round <= 3; ++round) {
          v = views.extend(v, std::vector<Obs>{{round % 4, v}});
        }
      }
      writing.fetch_sub(1);
    });
  }
  std::vector<std::uint64_t> failures(kReaders, 0);
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      std::size_t state_seen = 0, view_seen = 0;
      std::uint64_t& bad = failures[static_cast<std::size_t>(r)];
      for (bool last = false; !last;) {
        last = writing.load() == 0;  // one more pass after the writers end
        for (const std::size_t end = states.size(); state_seen < end;
             ++state_seen) {
          bad += !state_ok(states.state(static_cast<StateId>(state_seen)));
        }
        for (const std::size_t end = views.size(); view_seen < end;
             ++view_seen) {
          bad += !view_ok(static_cast<ViewId>(view_seen));
        }
      }
      EXPECT_EQ(state_seen, states.size());
      EXPECT_EQ(view_seen, views.size());
    });
  }
  for (auto& th : threads) th.join();

  for (const std::uint64_t bad : failures) EXPECT_EQ(bad, 0u);
  EXPECT_EQ(states.size(), kKeys * (kWriters + 1) / 2);
  // 300 distinct initial views (the owner follows from the input), each
  // extended three times.
  EXPECT_EQ(views.size(), 300u * 4);
}

// Known-input lanes are written when a view is interned, before its id is
// published: threads racing to build the same deep chain all read the same
// (correct) lanes at the tip, without any lock or memo.
TEST(ViewArenaTest, KnownInputLanesAreWrittenAtIntern) {
  ViewArena arena(4);
  std::vector<ViewId> tips(kThreads, kNoView);
  std::vector<const Value*> lanes(kThreads, nullptr);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // p0 learns everyone's input in its first phase, then hears nothing.
      std::vector<ViewId> others;
      for (ProcessId p = 1; p < 4; ++p) {
        others.push_back(arena.initial(p, p % 2));
      }
      ViewId v = arena.initial(0, 1);
      for (int d = 0; d < 30; ++d) {
        std::vector<Obs> obs;
        for (std::int32_t src = 1; src < 4; ++src) {
          obs.push_back(
              Obs{src, d == 0 ? others[static_cast<std::size_t>(src - 1)]
                              : kNoView});
        }
        v = arena.extend(v, obs);
      }
      tips[static_cast<std::size_t>(t)] = v;
      lanes[static_cast<std::size_t>(t)] = arena.known_inputs(v).data();
    });
  }
  for (auto& th : threads) th.join();

  const std::vector<Value> expected = {1, 1, 0, 1};  // p: input p%2; p0=1
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(tips[static_cast<std::size_t>(t)], tips[0]);
    EXPECT_EQ(lanes[static_cast<std::size_t>(t)], lanes[0]);
  }
  const std::span<const Value> known = arena.known_inputs(tips[0]);
  EXPECT_EQ(std::vector<Value>(known.begin(), known.end()), expected);
  EXPECT_EQ(arena.size(), 4u + 30u);
}

// Fault soak at kArenaAlloc against the pooled arena: injected allocation
// failures fire at intern entry, so no id is ever claimed for a failed
// intern and the arena stays fully consistent for the survivors.
TEST(ArenaFaultSoak, StateInternSurvivesInjectedAllocFailures) {
  StateArena arena;
  std::atomic<std::uint64_t> injected{0};
  std::atomic<std::uint64_t> succeeded{0};
  {
    fault::FaultScope scope(/*seed=*/20260805, /*rate=*/0.05,
                            1u << static_cast<unsigned>(
                                fault::Site::kArenaAlloc));
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        for (std::uint64_t i = 0; i < 400; ++i) {
          try {
            arena.intern(make_state(i));
            succeeded.fetch_add(1, std::memory_order_relaxed);
          } catch (const fault::InjectedAllocError&) {
            injected.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_GT(scope.plan().fired(fault::Site::kArenaAlloc), 0u);
  }
  EXPECT_GT(injected.load(), 0u);
  EXPECT_GT(succeeded.load(), 0u);
  // Every interned id round-trips, and re-interning (injection now off)
  // dedupes against the survivors instead of growing past the content set.
  const std::size_t survivors = arena.size();
  EXPECT_LE(survivors, 400u);
  for (std::uint64_t i = 0; i < 400; ++i) arena.intern(make_state(i));
  EXPECT_EQ(arena.size(), 400u);
  EXPECT_GE(arena.size(), survivors);
  StateArena serial;
  for (std::uint64_t i = 0; i < 400; ++i) serial.intern(make_state(i));
  EXPECT_EQ(content_hashes(arena), content_hashes(serial));
}

}  // namespace
}  // namespace lacon
