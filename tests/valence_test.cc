// Tests for the valence engine (Section 3): exactness, bivalence,
// shared-valence graphs and the constructive Lemma 3.4, plus the memo's
// merge and export contract (ValenceMemo.*).
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "core/decision_rule.hpp"
#include "engine/valence.hpp"
#include "models/mobile/mobile_model.hpp"
#include "models/msgpass/msgpass_model.hpp"
#include "models/sharedmem/sharedmem_model.hpp"
#include "models/synchronous/sync_model.hpp"

namespace lacon {
namespace {

// The initial state with these inputs. Under the symmetry quotient
// (LACON_SYMMETRY=on, as in ci.sh's soak) only one representative of each
// orbit is interned, and valence is invariant under relabeling, so there
// the inputs match up to a permutation.
StateId initial_with_inputs(LayeredModel& model, std::vector<Value> inputs) {
  const bool up_to_permutation = model.sym_quotient_active();
  if (up_to_permutation) std::sort(inputs.begin(), inputs.end());
  for (StateId s : model.initial_states()) {
    std::vector<Value> got;
    for (ProcessId i = 0; i < model.n(); ++i) {
      got.push_back(
          model.views()
              .node(model.state(s).locals[static_cast<std::size_t>(i)])
              .input);
    }
    if (up_to_permutation) std::sort(got.begin(), got.end());
    if (got == inputs) return s;
  }
  ADD_FAILURE() << "input assignment not found";
  return 0;
}

TEST(Valence, UnanimousInitialStatesAreUnivalent) {
  auto rule = min_after_round(2);
  MobileModel model(3, *rule);
  ValenceEngine engine(model, 3);
  const StateId all0 = initial_with_inputs(model, {0, 0, 0});
  const StateId all1 = initial_with_inputs(model, {1, 1, 1});
  const ValenceInfo v0 = engine.valence(all0);
  EXPECT_TRUE(v0.exact);
  EXPECT_TRUE(v0.univalent());
  EXPECT_EQ(v0.value(), 0);
  const ValenceInfo v1 = engine.valence(all1);
  EXPECT_TRUE(v1.univalent());
  EXPECT_EQ(v1.value(), 1);
}

TEST(Valence, MixedInitialStateIsBivalentInMobileModel) {
  // With one mobile failure the environment can hide the 0-input (silence
  // its holder) or reveal it, so a mixed state has both futures.
  auto rule = min_after_round(2);
  MobileModel model(3, *rule);
  ValenceEngine engine(model, 3);
  const StateId mixed = initial_with_inputs(model, {0, 1, 1});
  const ValenceInfo v = engine.valence(mixed);
  EXPECT_TRUE(v.bivalent());
}

TEST(Valence, QuiescentStateHasExactValence) {
  auto rule = min_after_round(1);
  MobileModel model(3, *rule);
  const StateId x0 = initial_with_inputs(model, {1, 1, 1});
  const StateId y = model.layer(x0).front();
  EXPECT_TRUE(quiescent(model, y));
  ValenceEngine engine(model, 0);  // no lookahead needed when quiescent
  const ValenceInfo v = engine.valence(y);
  EXPECT_TRUE(v.exact);
  EXPECT_TRUE(v.univalent());
}

TEST(Valence, HorizonZeroOnUndecidedStateIsInexact) {
  auto rule = min_after_round(2);
  MobileModel model(3, *rule);
  ValenceEngine engine(model, 0);
  const ValenceInfo v = engine.valence(model.initial_states().front());
  EXPECT_FALSE(v.exact);
  EXPECT_FALSE(v.v0);
  EXPECT_FALSE(v.v1);
}

TEST(Valence, MonotoneInHorizon) {
  auto rule = min_after_round(2);
  MobileModel model(3, *rule);
  const StateId mixed = initial_with_inputs(model, {0, 1, 1});
  ValenceEngine shallow(model, 1);
  ValenceEngine deep(model, 3);
  const ValenceInfo a = shallow.valence(mixed);
  const ValenceInfo b = deep.valence(mixed);
  EXPECT_LE(a.v0, b.v0);
  EXPECT_LE(a.v1, b.v1);
}

TEST(Valence, ConvergenceModeMarksStableSetsExact) {
  auto rule = min_after_round(2);
  SharedMemModel model(3, *rule);
  ValenceEngine engine(model, 3, Exactness::kConvergence);
  for (StateId x : model.initial_states()) {
    const ValenceInfo v = engine.valence(x);
    EXPECT_TRUE(v.exact) << "state " << x;
    EXPECT_TRUE(v.v0 || v.v1);
  }
}

TEST(Valence, SharedValenceAndGraph) {
  auto rule = min_after_round(2);
  MobileModel model(3, *rule);
  ValenceEngine engine(model, 3);
  const StateId all0 = initial_with_inputs(model, {0, 0, 0});
  const StateId all1 = initial_with_inputs(model, {1, 1, 1});
  const StateId mixed = initial_with_inputs(model, {0, 1, 1});
  EXPECT_FALSE(engine.shared_valence(all0, all1));
  EXPECT_TRUE(engine.shared_valence(all0, mixed));  // mixed is bivalent
  EXPECT_TRUE(engine.shared_valence(all1, mixed));
  EXPECT_TRUE(engine.valence_connected({all0, mixed, all1}));
  EXPECT_FALSE(engine.valence_connected({all0, all1}));
}

TEST(Valence, FindBivalentReturnsFirstBivalent) {
  auto rule = min_after_round(2);
  MobileModel model(3, *rule);
  ValenceEngine engine(model, 3);
  const StateId all0 = initial_with_inputs(model, {0, 0, 0});
  const StateId mixed = initial_with_inputs(model, {1, 0, 1});
  const auto found = engine.find_bivalent({all0, mixed});
  ASSERT_TRUE(found);
  EXPECT_EQ(*found, mixed);
  EXPECT_FALSE(engine.find_bivalent({all0}));
}

TEST(Valence, SyncModelStateWithTFailuresIsUnivalent) {
  // Proof of Lemma 6.2: a state with t failed processes has a unique
  // S^t extension, hence is univalent.
  auto rule = min_after_round(3);
  SyncModel model(3, 1, *rule);
  ValenceEngine engine(model, 4);
  const StateId mixed = initial_with_inputs(model, {0, 1, 1});
  const StateId y = model.apply(mixed, 0, 3);  // crash the 0-holder
  ASSERT_EQ(model.failed_at(y).size(), 1);
  const ValenceInfo v = engine.valence(y);
  EXPECT_TRUE(v.exact);
  EXPECT_TRUE(v.univalent());
}

TEST(Valence, MsgPassMixedInitialIsBivalent) {
  auto rule = min_after_round(2);
  MsgPassModel model(3, *rule);
  ValenceEngine engine(model, 3, Exactness::kConvergence);
  const StateId mixed = initial_with_inputs(model, {0, 1, 1});
  EXPECT_TRUE(engine.valence(mixed).bivalent());
}

TEST(Valence, DecidedValencesReadsNonFailedOnly) {
  auto rule = min_after_round(1);
  SyncModel model(3, 1, *rule);
  const StateId x0 = initial_with_inputs(model, {0, 1, 1});
  const StateId y = model.apply(x0, 0, 3);  // 0 crashes; survivors decide 1
  const ValenceInfo v = decided_valences(model, y);
  EXPECT_FALSE(v.v0);  // 0's own decision does not witness, it is failed
  EXPECT_TRUE(v.v1);
}


// --- The memo contract, driven through import_memo / export_memo ----------

using MemoEntry = ValenceEngine::MemoEntry;

MemoEntry memo_entry(StateId x, int lookahead, bool v0, bool v1, bool exact,
                     bool deep = false) {
  return MemoEntry{x, lookahead, v0, v1, exact, deep};
}

auto memo_key(const MemoEntry& e) {
  return std::make_tuple(e.x, e.lookahead, e.v0, e.v1, e.exact, e.deep);
}

// The one exported entry for (deep, x); fails the test when there is not
// exactly one.
MemoEntry exported(ValenceEngine& engine, StateId x, bool deep = false) {
  MemoEntry found;
  int hits = 0;
  for (const MemoEntry& e : engine.export_memo()) {
    if (e.x == x && e.deep == deep) {
      found = e;
      ++hits;
    }
  }
  EXPECT_EQ(hits, 1) << "state " << x << (deep ? " (deep)" : "");
  return found;
}

void expect_ascending(const std::vector<MemoEntry>& entries) {
  for (std::size_t i = 1; i < entries.size(); ++i) {
    EXPECT_LT(std::tie(entries[i - 1].deep, entries[i - 1].x),
              std::tie(entries[i].deep, entries[i].x))
        << "entry " << i;
  }
}

TEST(ValenceMemo, HorizonOutsideTheLookaheadFieldIsRejected) {
  auto rule = min_after_round(2);
  MobileModel model(3, *rule);
  EXPECT_NO_THROW(ValenceEngine(model, ValenceEngine::kMaxHorizon));
  EXPECT_THROW(ValenceEngine(model, ValenceEngine::kMaxHorizon + 1),
               std::invalid_argument);
  EXPECT_THROW(ValenceEngine(model, -1), std::invalid_argument);
}

TEST(ValenceMemo, DeeperEntryReplacesShallowerNeverTheReverse) {
  auto rule = min_after_round(2);
  MobileModel model(3, *rule);
  ValenceEngine engine(model, 3);
  const StateId x = initial_with_inputs(model, {0, 1, 1});

  engine.import_memo({memo_entry(x, 1, true, false, false)});
  EXPECT_EQ(memo_key(exported(engine, x)),
            memo_key(memo_entry(x, 1, true, false, false)));
  engine.import_memo({memo_entry(x, 3, true, false, true)});
  EXPECT_EQ(memo_key(exported(engine, x)),
            memo_key(memo_entry(x, 3, true, false, true)));
  engine.import_memo({memo_entry(x, 2, false, true, false)});
  EXPECT_EQ(memo_key(exported(engine, x)),
            memo_key(memo_entry(x, 3, true, false, true)));

  // A word at the requested lookahead is a hit: no evaluation runs.
  EXPECT_TRUE(engine.valence(x).same_set(ValenceInfo{true, false, true}));
  EXPECT_EQ(engine.evaluations(), 0u);
}

TEST(ValenceMemo, BivalentEntryIsMaximal) {
  auto rule = min_after_round(2);
  MobileModel model(3, *rule);
  ValenceEngine engine(model, 3);
  const StateId x = initial_with_inputs(model, {0, 0, 1});

  engine.import_memo({memo_entry(x, 3, true, false, true)});
  engine.import_memo({memo_entry(x, 1, true, true, true)});
  EXPECT_EQ(memo_key(exported(engine, x)),
            memo_key(memo_entry(x, 1, true, true, true)));
  engine.import_memo({memo_entry(x, 3, false, true, true),
                      memo_entry(x, 0, true, false, false)});
  EXPECT_EQ(memo_key(exported(engine, x)),
            memo_key(memo_entry(x, 1, true, true, true)));

  // A bivalent word is a hit at any budget, even below its lookahead.
  EXPECT_TRUE(engine.valence(x).bivalent());
  EXPECT_EQ(engine.evaluations(), 0u);
}

TEST(ValenceMemo, QuiescenceEngineIgnoresDeepEntries) {
  auto rule = min_after_round(2);
  SharedMemModel model(3, *rule);
  const StateId x = model.initial_states().front();
  const std::vector<MemoEntry> deep = {memo_entry(x, 4, true, false, true,
                                                  /*deep=*/true)};

  ValenceEngine quiescence(model, 3, Exactness::kQuiescence);
  quiescence.import_memo(deep);
  EXPECT_TRUE(quiescence.export_memo().empty());

  ValenceEngine convergence(model, 3, Exactness::kConvergence);
  convergence.import_memo(deep);
  const std::vector<MemoEntry> got = convergence.export_memo();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(memo_key(got.front()), memo_key(deep.front()));
}

TEST(ValenceMemo, ExportIsAscendingByDeepThenStateAndRoundTrips) {
  auto rule = min_after_round(2);
  SharedMemModel model(3, *rule);
  ValenceEngine engine(model, 3, Exactness::kConvergence);
  engine.classify_all(model.initial_states());
  const std::vector<MemoEntry> memo = engine.export_memo();
  ASSERT_FALSE(memo.empty());
  ASSERT_TRUE(memo.back().deep);
  expect_ascending(memo);

  ValenceEngine copy(model, 3, Exactness::kConvergence);
  copy.import_memo(memo);
  const std::vector<MemoEntry> again = copy.export_memo();
  ASSERT_EQ(again.size(), memo.size());
  for (std::size_t i = 0; i < memo.size(); ++i) {
    EXPECT_EQ(memo_key(again[i]), memo_key(memo[i])) << "entry " << i;
  }
}

TEST(ValenceMemo, DrainReturnsAStrengthenedEntryOnceWithItsCurrentValue) {
  auto rule = min_after_round(2);
  MobileModel model(3, *rule);
  const StateId x = initial_with_inputs(model, {0, 1, 1});
  model.begin_log_epoch(model.num_states());  // the model now records
  ValenceEngine engine(model, 3);

  // Classifying x memoizes its first successor at lookahead 2.
  engine.valence(x);
  StateId y = 0;
  bool found = false;
  for (StateId s : model.layer(x)) {
    const MemoEntry e = exported(engine, s);
    if (e.lookahead == 2 && !(e.v0 && e.v1)) {
      y = s;
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found) << "no successor memoized below the horizon";
  const std::vector<MemoEntry> first = engine.drain_memo(model.num_states());
  expect_ascending(first);
  EXPECT_EQ(first.size(), engine.export_memo().size());

  // Classifying y itself strengthens its word to the full horizon.
  engine.valence(y);
  const std::vector<MemoEntry> second = engine.drain_memo(model.num_states());
  expect_ascending(second);
  const auto it = std::find_if(second.begin(), second.end(),
                               [y](const MemoEntry& e) { return e.x == y; });
  ASSERT_NE(it, second.end());
  EXPECT_EQ(it->lookahead, 3);
  EXPECT_EQ(memo_key(*it), memo_key(exported(engine, y)));
  for (const MemoEntry& e : second) {
    EXPECT_EQ(memo_key(e), memo_key(exported(engine, e.x))) << "state " << e.x;
  }

  // A hit changes nothing and queues nothing.
  engine.valence(y);
  EXPECT_TRUE(engine.drain_memo(model.num_states()).empty());
}

}  // namespace
}  // namespace lacon
