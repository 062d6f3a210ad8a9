// Unit tests for src/core: view arena, global states, decision rules, and
// the LayeredModel base machinery.
#include <gtest/gtest.h>

#include "core/decision_rule.hpp"
#include "core/model.hpp"
#include "core/state.hpp"
#include "core/view.hpp"

namespace lacon {
namespace {

using ObsList = std::vector<Obs>;

TEST(ViewArena, InitialViewsInterned) {
  ViewArena arena(3);
  const ViewId a = arena.initial(0, 1);
  const ViewId b = arena.initial(0, 1);
  const ViewId c = arena.initial(0, 0);
  const ViewId d = arena.initial(1, 1);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(a, d);
  EXPECT_EQ(arena.node(a).round, 0);
  EXPECT_EQ(arena.node(a).input, 1);
}

TEST(ViewArena, ExtendAdvancesRoundAndInterns) {
  ViewArena arena(3);
  const ViewId a = arena.initial(0, 1);
  const ViewId b = arena.initial(1, 0);
  const ViewId x = arena.extend(a, ObsList{{1, b}, {2, kNoView}});
  const ViewId y = arena.extend(a, ObsList{{1, b}, {2, kNoView}});
  const ViewId z = arena.extend(a, ObsList{{1, kNoView}, {2, kNoView}});
  EXPECT_EQ(x, y);
  EXPECT_NE(x, z);
  EXPECT_EQ(arena.node(x).round, 1);
  EXPECT_EQ(arena.node(x).owner, 0);
  EXPECT_EQ(arena.node(x).input, 1);  // input propagates down the chain
}

TEST(ViewArena, KnownInputsRoot) {
  ViewArena arena(3);
  const ViewId a = arena.initial(1, 7);
  const auto& known = arena.known_inputs(a);
  EXPECT_EQ(known[0], kUnknownInput);
  EXPECT_EQ(known[1], 7);
  EXPECT_EQ(known[2], kUnknownInput);
}

TEST(ViewArena, KnownInputsPropagateThroughObservations) {
  ViewArena arena(3);
  const ViewId a = arena.initial(0, 0);
  const ViewId b = arena.initial(1, 1);
  const ViewId c = arena.initial(2, 1);
  // Process 0 observes 1 but misses 2.
  const ViewId x = arena.extend(a, ObsList{{1, b}, {2, kNoView}});
  const auto& known = arena.known_inputs(x);
  EXPECT_EQ(known[0], 0);
  EXPECT_EQ(known[1], 1);
  EXPECT_EQ(known[2], kUnknownInput);
  // A second round observing a view that knows 2's input fills the gap.
  const ViewId y1 = arena.extend(b, ObsList{{0, a}, {2, c}});
  const ViewId x2 = arena.extend(x, ObsList{{1, y1}, {2, kNoView}});
  EXPECT_EQ(arena.known_inputs(x2)[2], 1);
}

TEST(ViewArena, KnownInputsTransitiveThroughPrevChain) {
  ViewArena arena(2);
  const ViewId a = arena.initial(0, 0);
  const ViewId b = arena.initial(1, 1);
  const ViewId x1 = arena.extend(a, ObsList{{1, b}});
  const ViewId x2 = arena.extend(x1, ObsList{{1, kNoView}});
  // Input of 1 was learned in round 1 and persists.
  EXPECT_EQ(arena.known_inputs(x2)[1], 1);
}

TEST(ViewArena, ToStringMentionsOwnerAndRound) {
  ViewArena arena(2);
  const ViewId a = arena.initial(0, 1);
  EXPECT_EQ(arena.to_string(a), "p0@0(in=1)");
  const ViewId x = arena.extend(a, ObsList{{1, kNoView}});
  EXPECT_NE(arena.to_string(x).find("p0@1"), std::string::npos);
}

TEST(GlobalState, AgreeModulo) {
  GlobalState x{{1, 2}, {10, 11, 12}, {kUndecided, 0, kUndecided}};
  GlobalState y{{1, 2}, {10, 99, 12}, {kUndecided, 1, kUndecided}};
  EXPECT_TRUE(agree_modulo(x, y, 1));   // differ only in process 1
  EXPECT_FALSE(agree_modulo(x, y, 0));  // process 1 still differs
  GlobalState z = x;
  z.env = {1, 3};
  EXPECT_FALSE(agree_modulo(x, z, 1));  // environments must be equal
  EXPECT_TRUE(agree_modulo(x, x, 2));   // reflexive for any j
}

TEST(GlobalState, AgreeModuloSeesDecisionDifference) {
  GlobalState x{{}, {10, 11}, {0, kUndecided}};
  GlobalState y{{}, {10, 11}, {1, kUndecided}};
  EXPECT_TRUE(agree_modulo(x, y, 0));
  EXPECT_FALSE(agree_modulo(x, y, 1));
}

TEST(StateArena, InternsStructurally) {
  StateArena arena;
  const std::vector<Value> undecided = {kUndecided, kUndecided};
  const StateId a = arena.intern(GlobalState{{1}, {2, 3}, undecided});
  const StateId b = arena.intern(GlobalState{{1}, {2, 3}, undecided});
  const StateId c = arena.intern(GlobalState{{1}, {2, 4}, undecided});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(arena.size(), 2u);
  EXPECT_EQ(arena.state(a).locals[1], 3);
}

TEST(AllBinaryInputs, EnumeratesCube) {
  const auto inputs = all_binary_inputs(3);
  EXPECT_EQ(inputs.size(), 8u);
  for (const auto& in : inputs) {
    EXPECT_EQ(in.size(), 3u);
    for (Value v : in) EXPECT_TRUE(v == 0 || v == 1);
  }
}

class RuleFixture : public ::testing::Test {
 protected:
  ViewArena arena_{3};
};

TEST_F(RuleFixture, NeverDecide) {
  const auto rule = never_decide();
  const ViewId v = arena_.initial(0, 1);
  EXPECT_FALSE(rule->decide(0, v, arena_));
  EXPECT_EQ(rule->name(), "never-decide");
}

TEST_F(RuleFixture, MinAfterRoundWaitsForRound) {
  const auto rule = min_after_round(1);
  const ViewId a = arena_.initial(0, 1);
  EXPECT_FALSE(rule->decide(0, a, arena_));  // round 0 < 1
  const ViewId b = arena_.initial(1, 0);
  const ViewId x = arena_.extend(a, ObsList{{1, b}, {2, kNoView}});
  const auto d = rule->decide(0, x, arena_);
  ASSERT_TRUE(d);
  EXPECT_EQ(*d, 0);  // min of {1, 0}
}

TEST_F(RuleFixture, OwnInputAfterRound) {
  const auto rule = own_input_after_round(1);
  const ViewId a = arena_.initial(2, 1);
  const ViewId x = arena_.extend(a, ObsList{{0, kNoView}, {1, kNoView}});
  const auto d = rule->decide(2, x, arena_);
  ASSERT_TRUE(d);
  EXPECT_EQ(*d, 1);
}

TEST_F(RuleFixture, UnanimityDecidesEarlyOnCompleteUnanimousView) {
  const auto rule = unanimity_then_min(5);
  const ViewId a = arena_.initial(0, 1);
  const ViewId b = arena_.initial(1, 1);
  const ViewId c = arena_.initial(2, 1);
  const ViewId x = arena_.extend(a, ObsList{{1, b}, {2, c}});
  const auto d = rule->decide(0, x, arena_);
  ASSERT_TRUE(d);
  EXPECT_EQ(*d, 1);
  // Mixed inputs: no early decision before the deadline round.
  const ViewId b0 = arena_.initial(1, 0);
  const ViewId y = arena_.extend(a, ObsList{{1, b0}, {2, c}});
  EXPECT_FALSE(rule->decide(0, y, arena_));
}

TEST_F(RuleFixture, MajorityAfterRound) {
  const auto rule = majority_after_round(1);
  const ViewId a = arena_.initial(0, 0);
  const ViewId b = arena_.initial(1, 1);
  const ViewId c = arena_.initial(2, 1);
  const ViewId x = arena_.extend(a, ObsList{{1, b}, {2, c}});
  const auto d = rule->decide(0, x, arena_);
  ASSERT_TRUE(d);
  EXPECT_EQ(*d, 1);  // two ones beat one zero
  // Ties go to 0.
  const ViewId y = arena_.extend(a, ObsList{{1, b}, {2, kNoView}});
  const auto dy = rule->decide(0, y, arena_);
  ASSERT_TRUE(dy);
  EXPECT_EQ(*dy, 0);
}

}  // namespace
}  // namespace lacon
