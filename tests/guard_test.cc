// lacon::guard — budgets, graceful partial results, deterministic fault
// injection.
//
// The load-bearing assertions are the truncation-shape ones: a
// budget-truncated exploration returns complete levels only, at the depth
// where its own reached set first exceeds the budget, and a
// deadline-truncated oversized exploration stops at a level boundary.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "analysis/reports.hpp"
#include "core/decision_rule.hpp"
#include "core/sym.hpp"
#include "engine/bivalence.hpp"
#include "engine/explore.hpp"
#include "engine/valence.hpp"
#include "relation/graph.hpp"
#include "relation/similarity.hpp"
#include "runtime/fault.hpp"
#include "runtime/guard.hpp"

namespace lacon {
namespace {

using guard::Guard;
using guard::Partial;
using guard::TruncationReason;

// Content-determined rendering of a state (raw ids depend on intern order;
// the rendered terms do not).
std::string state_fingerprint(LayeredModel& model, StateId x) {
  const StateRef s = model.state(x);
  std::string out = "env[" + model.env_to_string(x);
  out += "] views[";
  for (ViewId v : s.locals) out += model.views().to_string(v) + ";";
  out += "] d[";
  for (Value d : s.decisions) out += std::to_string(d) + ",";
  return out + "]";
}

std::vector<std::vector<std::string>> level_fingerprints(
    LayeredModel& model, const std::vector<std::vector<StateId>>& levels) {
  std::vector<std::vector<std::string>> out;
  for (const auto& level : levels) {
    std::vector<std::string> prints;
    for (StateId x : level) prints.push_back(state_fingerprint(model, x));
    std::sort(prints.begin(), prints.end());
    out.push_back(std::move(prints));
  }
  return out;
}

TEST(TruncationReasonTest, ToStringCoversEveryReason) {
  EXPECT_STREQ("none", guard::to_string(TruncationReason::kNone));
  EXPECT_STREQ("deadline", guard::to_string(TruncationReason::kDeadline));
  EXPECT_STREQ("state_budget",
               guard::to_string(TruncationReason::kStateBudget));
}

TEST(GuardTest, DefaultGuardNeverTripsWithoutLimitsOrFaults) {
  Guard g;
  EXPECT_FALSE(g.never_trips());  // live, just unlimited
  EXPECT_FALSE(g.tripped());
  EXPECT_EQ(TruncationReason::kNone, g.check(1'000'000));
}

TEST(GuardTest, InertGuardIgnoresEverything) {
  const Guard& g = Guard::none();
  EXPECT_TRUE(g.never_trips());
  EXPECT_FALSE(g.tripped());
  g.note_memory_exhausted();  // no-op by contract
  EXPECT_EQ(TruncationReason::kNone, g.reason());
}

TEST(GuardTest, StateBudgetTripsAndIsSticky) {
  Guard g;
  g.with_state_budget(100);
  EXPECT_EQ(TruncationReason::kNone, g.check(100));  // at the budget: fine
  EXPECT_EQ(TruncationReason::kStateBudget, g.check(101));
  // Sticky: later in-budget checks still report the recorded trip.
  EXPECT_EQ(TruncationReason::kStateBudget, g.check(5));
  EXPECT_TRUE(g.tripped());
}

TEST(GuardTest, DeadlineTrips) {
  Guard g;
  g.with_deadline(std::chrono::milliseconds(0));
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_TRUE(g.tripped());
  EXPECT_EQ(TruncationReason::kDeadline, g.reason());
}

TEST(GuardTest, FirstTripWinsOverLaterReasons) {
  Guard g;
  g.with_deadline(std::chrono::milliseconds(-1)).with_state_budget(10);
  EXPECT_TRUE(g.tripped());
  EXPECT_EQ(TruncationReason::kDeadline, g.check(1000));  // sticky reason
}

TEST(GuardSpecTest, ScopedGuardMaterializesSpec) {
  guard::GuardSpec unlimited;
  EXPECT_FALSE(unlimited.limited());
  guard::ScopedGuard inert(unlimited);
  EXPECT_TRUE(inert.get().never_trips());

  guard::GuardSpec spec;
  spec.max_states = 7;
  EXPECT_TRUE(spec.limited());
  guard::ScopedGuard scoped(spec);
  EXPECT_FALSE(scoped.get().never_trips());
  EXPECT_EQ(TruncationReason::kStateBudget, scoped.get().check(8));
}

TEST(PartialTest, CompleteIffNoTruncation) {
  Partial<int> p;
  EXPECT_TRUE(p.complete());
  p.truncation = TruncationReason::kDeadline;
  EXPECT_FALSE(p.complete());
}

// ---------------------------------------------------------------------------
// Deterministic fault plans.

TEST(FaultPlanTest, FiringScheduleIsAFunctionOfSeedSiteAndProbeIndex) {
  fault::FaultPlan a(20260805, 0.5);
  fault::FaultPlan b(20260805, 0.5);
  std::vector<bool> fires_a, fires_b;
  for (int k = 0; k < 64; ++k) {
    fires_a.push_back(a.fire(fault::Site::kArenaAlloc));
    fires_b.push_back(b.fire(fault::Site::kArenaAlloc));
  }
  EXPECT_EQ(fires_a, fires_b);
  EXPECT_GT(a.fired(fault::Site::kArenaAlloc), 0u);  // rate 0.5 over 64 draws
  EXPECT_LT(a.fired(fault::Site::kArenaAlloc), 64u);
  EXPECT_EQ(64u, a.probes(fault::Site::kArenaAlloc));
  // Different seed, different schedule (overwhelmingly likely over 64 draws).
  fault::FaultPlan c(777, 0.5);
  std::vector<bool> fires_c;
  for (int k = 0; k < 64; ++k) {
    fires_c.push_back(c.fire(fault::Site::kArenaAlloc));
  }
  EXPECT_NE(fires_a, fires_c);
}

TEST(FaultPlanTest, SiteMaskRestrictsFiring) {
  fault::FaultPlan plan(
      1, 1.0, 1u << static_cast<unsigned>(fault::Site::kGuardBudget));
  EXPECT_TRUE(plan.fire(fault::Site::kGuardBudget));
  EXPECT_FALSE(plan.fire(fault::Site::kArenaAlloc));
}

TEST(FaultPlanTest, RateZeroNeverFiresRateOneAlwaysFires) {
  fault::FaultPlan never(9, 0.0);
  fault::FaultPlan always(9, 1.0);
  for (int k = 0; k < 16; ++k) {
    EXPECT_FALSE(never.fire(fault::Site::kGuardBudget));
    EXPECT_TRUE(always.fire(fault::Site::kGuardBudget));
  }
}

TEST(FaultConfigTest, EnvParsingRejectsGarbage) {
  setenv("LACON_FAULT_SEED", "not-a-number", 1);
  EXPECT_FALSE(fault::config_from_env().has_value());
  setenv("LACON_FAULT_SEED", "123", 1);
  setenv("LACON_FAULT_RATE", "0.25", 1);
  const auto config = fault::config_from_env();
  ASSERT_TRUE(config.has_value());
  EXPECT_EQ(123u, config->seed);
  EXPECT_DOUBLE_EQ(0.25, config->rate);
  setenv("LACON_FAULT_RATE", "2.5", 1);  // out of [0,1]: default rate
  const auto fallback = fault::config_from_env();
  ASSERT_TRUE(fallback.has_value());
  EXPECT_DOUBLE_EQ(0.01, fallback->rate);
  setenv("LACON_FAULT_RATE", "0", 1);  // explicit zero: injection off
  EXPECT_FALSE(fault::config_from_env().has_value());
  unsetenv("LACON_FAULT_SEED");
  unsetenv("LACON_FAULT_RATE");
}

TEST(FaultScopeTest, InstallsAndRemovesPlan) {
  EXPECT_EQ(nullptr, fault::active_plan());
  {
    fault::FaultScope scope(42, 1.0);
    EXPECT_EQ(&scope.plan(), fault::active_plan());
    EXPECT_TRUE(fault::fire(fault::Site::kGuardBudget));
  }
  EXPECT_EQ(nullptr, fault::active_plan());
  EXPECT_FALSE(fault::fire(fault::Site::kGuardBudget));  // off when no plan
}

// ---------------------------------------------------------------------------
// Guarded engine layers.

// Oversized on purpose: the asynchronous message-passing layering at n = 8
// has |Con_0| = 256 and hundreds of thousands of actions per layer, far
// beyond a 100 ms budget. The exploration must return a Partial that holds
// exactly the complete levels — here only Con_0.
TEST(GuardedExploreTest, OversizedDeadlineTruncatesIdenticallyAcrossWorkers) {
  auto rule = min_after_round(2);
  auto model = make_model(ModelKind::kMsgPass, 8, 1, *rule);
  Guard g;
  g.with_deadline(std::chrono::milliseconds(100));
  const auto partial = reachable_by_depth(*model, 6, g);
  EXPECT_EQ(TruncationReason::kDeadline, partial.truncation);
  // 100 ms cannot finish even one n=8 message-passing layer.
  EXPECT_EQ(0u, partial.completed);
  ASSERT_EQ(1u, partial.value.size());
  // {0,1}^8 inputs: 256 initial states, folding to the 9 Hamming-weight
  // orbits when the quotient is on (msgpass declares full symmetry).
  EXPECT_EQ(sym::enabled() ? 9u : 256u, partial.value[0].size());
}

// The state budget is evaluated only at depth boundaries, against the
// states this exploration reached: the truncation depth and every returned
// level are a function of the request alone. mobile n=4 has 16 initial
// states and 208 more at depth 1, so a budget of 50 admits the depth-1
// expansion (16 <= 50) and stops at the next boundary (224 > 50).
TEST(GuardedExploreTest, StateBudgetTruncatesDeterministicallyAcrossWorkers) {
  auto rule = min_after_round(2);
  const auto run = [&rule](LayeredModel& model) {
    Guard g;
    g.with_state_budget(50);
    return reachable_by_depth(model, 5, g);
  };
  auto model = make_model(ModelKind::kMobile, 4, 1, *rule);
  const auto partial = run(*model);
  EXPECT_EQ(TruncationReason::kStateBudget, partial.truncation);
  EXPECT_EQ(1u, partial.completed);  // |Con_0| = 16 <= 50: depth 1 happens
  ASSERT_EQ(2u, partial.value.size());
  EXPECT_EQ(16u, partial.value[0].size());
  EXPECT_EQ(208u, partial.value[1].size());
  // A model that earlier calls already populated truncates identically.
  auto warm = make_model(ModelKind::kMobile, 4, 1, *rule);
  reachable_by_depth(*warm, 3);
  const auto again = run(*warm);
  EXPECT_EQ(partial.truncation, again.truncation);
  EXPECT_EQ(partial.completed, again.completed);
  EXPECT_EQ(level_fingerprints(*model, partial.value),
            level_fingerprints(*warm, again.value));
}

TEST(GuardedExploreTest, GenerousGuardMatchesUnguardedResult) {
  auto rule = min_after_round(2);
  auto model = make_model(ModelKind::kMobile, 3, 1, *rule);
  const auto unguarded = reachable_by_depth(*model, 3);

  auto model2 = make_model(ModelKind::kMobile, 3, 1, *rule);
  Guard g;
  g.with_deadline(std::chrono::minutes(10)).with_state_budget(1u << 30);
  const auto partial = reachable_by_depth(*model2, 3, g);
  EXPECT_TRUE(partial.complete());
  EXPECT_EQ(TruncationReason::kNone, partial.truncation);
  EXPECT_EQ(unguarded.size(), partial.value.size());
  EXPECT_EQ(partial.completed, partial.value.size() - 1);
  EXPECT_EQ(level_fingerprints(*model, unguarded),
            level_fingerprints(*model2, partial.value));
}

TEST(GuardedClassifyTest, TruncatedClassificationIsAValidPrefix) {
  auto rule = min_after_round(2);
  auto model = make_model(ModelKind::kMobile, 3, 1, *rule);
  const auto& con0 = model->initial_states();

  ValenceEngine reference(*model, 3);
  const std::vector<ValenceInfo> full = reference.classify_all(con0);
  ASSERT_EQ(con0.size(), full.size());

  // kGuardBudget at rate 0.5: the guard trips at a deterministic probe
  // index, somewhere inside the classification.
  ValenceEngine engine(*model, 3);
  fault::FaultScope scope(
      20260805, 0.5,
      1u << static_cast<unsigned>(fault::Site::kGuardBudget));
  Guard g;
  const auto partial = engine.classify_all(con0, g);
  EXPECT_EQ(TruncationReason::kStateBudget, partial.truncation);
  EXPECT_EQ(partial.completed, partial.value.size());
  EXPECT_LT(partial.completed, con0.size());
  for (std::size_t i = 0; i < partial.completed; ++i) {
    EXPECT_TRUE(partial.value[i].same_set(full[i])) << "index " << i;
  }
}

// A guard whose deadline has already passed cancels the run at its first
// depth boundary.
TEST(GuardedBivalenceTest, CancelledRunReportsTruncation) {
  auto rule = min_after_round(2);
  auto model = make_model(ModelKind::kMobile, 3, 1, *rule);
  ValenceEngine engine(*model, 3);
  Guard g;
  g.with_deadline(std::chrono::milliseconds(-1));
  const BivalentRunResult result = extend_bivalent_run(engine, 3, g);
  EXPECT_FALSE(result.complete);
  EXPECT_EQ(TruncationReason::kDeadline, result.truncation);
  EXPECT_LE(result.run.size(), 1u);
}

TEST(GuardedBivalenceTest, GenerousGuardCompletes) {
  auto rule = min_after_round(2);
  auto model = make_model(ModelKind::kMobile, 3, 1, *rule);
  ValenceEngine engine(*model, 3);
  Guard g;
  g.with_state_budget(1u << 30);
  const BivalentRunResult result = extend_bivalent_run(engine, 3, g);
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(TruncationReason::kNone, result.truncation);
  EXPECT_EQ(4u, result.run.size());
}

// ---------------------------------------------------------------------------
// Guarded relation layer.

Graph path_graph(std::size_t n) {
  Graph g(n);
  for (std::size_t v = 0; v + 1 < n; ++v) g.add_edge(v, v + 1);
  return g;
}

TEST(GuardedDiameterTest, CompleteRunMatchesPlainDiameter) {
  const Graph g = path_graph(32);
  Guard guard;
  guard.with_state_budget(1u << 30);
  const auto partial = g.diameter(guard);
  EXPECT_TRUE(partial.complete());
  EXPECT_EQ(32u, partial.completed);
  ASSERT_TRUE(partial.value.has_value());
  EXPECT_EQ(31u, *partial.value);
}

TEST(GuardedDiameterTest, PreTrippedGuardYieldsNoBound) {
  const Graph g = path_graph(16);
  Guard guard;
  guard.with_deadline(std::chrono::milliseconds(-1));
  const auto partial = g.diameter(guard);
  EXPECT_EQ(TruncationReason::kDeadline, partial.truncation);
  EXPECT_EQ(0u, partial.completed);
  EXPECT_FALSE(partial.value.has_value());
}

TEST(GuardedDiameterTest, DisconnectionEvidenceIsConclusive) {
  Graph g(6);
  g.add_edge(0, 1);
  g.add_edge(2, 3);  // two components
  Guard guard;
  guard.with_state_budget(1u << 30);
  const auto partial = g.diameter(guard);
  EXPECT_TRUE(partial.complete());
  EXPECT_FALSE(partial.value.has_value());
}

TEST(GuardedSimilarityTest, GenerousGuardMatchesUnguardedGraph) {
  auto rule = min_after_round(2);
  auto model = make_model(ModelKind::kMobile, 3, 1, *rule);
  const auto& con0 = model->initial_states();
  const Graph plain = similarity_graph(*model, con0);

  Guard g;
  g.with_state_budget(1u << 30);
  const auto partial = similarity_graph(*model, con0, g);
  EXPECT_TRUE(partial.complete());
  EXPECT_EQ(plain.size(), partial.value.size());
  EXPECT_EQ(plain.edge_count(), partial.value.edge_count());

  const auto diam = s_diameter(*model, con0, g);
  EXPECT_TRUE(diam.complete());
  EXPECT_EQ(s_diameter(*model, con0), diam.value);
}

TEST(GuardedSimilarityTest, PreTrippedGuardYieldsEmptyPartial) {
  auto rule = min_after_round(2);
  auto model = make_model(ModelKind::kMobile, 3, 1, *rule);
  const auto& con0 = model->initial_states();
  Guard g;
  g.with_deadline(std::chrono::milliseconds(-1));
  const auto partial = similarity_graph(*model, con0, g);
  EXPECT_EQ(TruncationReason::kDeadline, partial.truncation);
  EXPECT_EQ(0u, partial.completed);
  EXPECT_EQ(0u, partial.value.edge_count());
}

// ---------------------------------------------------------------------------
// Fault sites: every TruncationReason is reachable through injection.

TEST(FaultSiteTest, GuardBudgetFaultTruncatesAsStateBudget) {
  auto rule = min_after_round(2);
  auto model = make_model(ModelKind::kMobile, 3, 1, *rule);
  fault::FaultScope scope(
      7, 1.0, 1u << static_cast<unsigned>(fault::Site::kGuardBudget));
  Guard g;
  const auto partial = reachable_by_depth(*model, 3, g);
  EXPECT_EQ(TruncationReason::kStateBudget, partial.truncation);
  EXPECT_EQ(0u, partial.completed);
}

TEST(FaultSiteTest, ArenaAllocFaultDegradesToStateBudgetUnderGuard) {
  auto rule = min_after_round(2);
  auto model = make_model(ModelKind::kMobile, 3, 1, *rule);
  fault::FaultScope scope(
      7, 1.0, 1u << static_cast<unsigned>(fault::Site::kArenaAlloc));
  Guard g;
  // Every intern throws InjectedAllocError; the guarded exploration turns
  // the very first one (inside initial_states) into a budget truncation.
  const auto partial = reachable_by_depth(*model, 3, g);
  EXPECT_EQ(TruncationReason::kStateBudget, partial.truncation);
  EXPECT_EQ(0u, partial.completed);
  EXPECT_TRUE(partial.value.empty());
}

TEST(FaultSiteTest, ArenaAllocFaultPropagatesWithoutGuard) {
  auto rule = min_after_round(2);
  auto model = make_model(ModelKind::kMobile, 3, 1, *rule);
  fault::FaultScope scope(
      7, 1.0, 1u << static_cast<unsigned>(fault::Site::kArenaAlloc));
  EXPECT_THROW(model->initial_states(), fault::InjectedAllocError);
}

// Soak: a seeded plan over all sites at a moderate rate, driving a full
// analysis pipeline. Asserts crash-freedom and well-formed partials, not
// specific values — ci.sh re-runs this under TSan/ASan with
// LACON_FAULT_SEED/LACON_FAULT_RATE overriding the defaults.
TEST(FaultSoak, GuardedPipelineSurvivesSeededInjection) {
  fault::FaultConfig config{20260805, 0.02};
  if (const auto env = fault::config_from_env()) config = *env;
  for (std::uint64_t seed_offset : {1u, 4u}) {
    fault::FaultScope scope(config.seed + seed_offset, config.rate);
    auto rule = min_after_round(2);
    auto model = make_model(ModelKind::kMobile, 3, 1, *rule);
    Guard g;
    g.with_deadline(std::chrono::seconds(60));
    const auto partial = reachable_by_depth(*model, 3, g);
    EXPECT_EQ(partial.completed,
              partial.value.empty() ? 0 : partial.value.size() - 1);
    if (!partial.value.empty()) {
      ValenceEngine engine(*model, 2);
      std::vector<StateId> flat;
      for (const auto& level : partial.value) {
        flat.insert(flat.end(), level.begin(), level.end());
      }
      const auto classified = engine.classify_all(flat, g);
      EXPECT_EQ(classified.value.size(), classified.completed);
      EXPECT_LE(classified.completed, flat.size());
    }
  }
}

}  // namespace
}  // namespace lacon
