// Tests for the process-permutation symmetry quotient (core/sym.hpp,
// DESIGN.md §15): knob parsing, orbit canonicalization invariants,
// quotient-vs-full count identity, and the soundness gates that keep
// asymmetric models and non-closed input sets out of the quotient.
#include <cstdint>
#include <map>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "core/model.hpp"
#include "core/sym.hpp"
#include "engine/explore.hpp"
#include "models/iis/iis_model.hpp"
#include "models/mobile/mobile_model.hpp"
#include "models/msgpass/msgpass_model.hpp"
#include "models/snapshot/snapshot_model.hpp"
#include "runtime/stats.hpp"

namespace lacon {
namespace {

GlobalState copy_state(const StateRef& ref) {
  return GlobalState{{ref.env.begin(), ref.env.end()},
                     {ref.locals.begin(), ref.locals.end()},
                     {ref.decisions.begin(), ref.decisions.end()}};
}

TEST(SymKnob, ParseSymmetry) {
  EXPECT_FALSE(sym::parse_symmetry(nullptr, false));
  EXPECT_TRUE(sym::parse_symmetry(nullptr, true));
  EXPECT_FALSE(sym::parse_symmetry("", false));
  EXPECT_TRUE(sym::parse_symmetry("", true));
  EXPECT_TRUE(sym::parse_symmetry("on", false));
  EXPECT_FALSE(sym::parse_symmetry("off", true));
  // Garbage (including numeric overflow-style strings) warns once and
  // falls back — never aborts, never throws.
  EXPECT_FALSE(sym::parse_symmetry("banana", false));
  EXPECT_TRUE(sym::parse_symmetry("banana", true));
  EXPECT_FALSE(sym::parse_symmetry("999999999999999999999999", false));
  EXPECT_TRUE(sym::parse_symmetry("ON", true));   // case-sensitive: garbage
  EXPECT_FALSE(sym::parse_symmetry("1", false));  // not a boolean spelling
}

TEST(SymKnob, ScopedOverrideNests) {
  {
    sym::ScopedSymmetry outer(true);
    EXPECT_TRUE(sym::enabled());
    {
      sym::ScopedSymmetry inner(false);
      EXPECT_FALSE(sym::enabled());
    }
    EXPECT_TRUE(sym::enabled());
  }
}

TEST(SymKnob, Factorial) {
  EXPECT_EQ(sym::factorial(0), 1u);
  EXPECT_EQ(sym::factorial(1), 1u);
  EXPECT_EQ(sym::factorial(4), 24u);
  EXPECT_EQ(sym::factorial(8), 40320u);
}

// Interning any permuted variant of a canonical state yields the same id —
// the core quotient property. Orbit members *are* exactly the permuted
// variants, so unfolding and re-interning covers every permutation.
template <typename ModelT>
void check_permutation_invariance(ModelT& model, int depth) {
  ASSERT_TRUE(model.sym_quotient_active());
  const auto levels = reachable_by_depth(model, depth);
  std::size_t orbits_checked = 0;
  for (const auto& level : levels) {
    for (const StateId x : level) {
      const std::vector<StateId> orbit = model.unfold_orbit(x);
      EXPECT_EQ(orbit.size(), model.orbit_weight(x));
      EXPECT_TRUE(std::binary_search(orbit.begin(), orbit.end(), x));
      for (const StateId member : orbit) {
        GlobalState copy = copy_state(model.state(member));
        EXPECT_EQ(model.intern_canonical(copy), x);
      }
      orbits_checked += orbit.size() > 1 ? 1 : 0;
    }
  }
  // The exploration must actually have exercised non-trivial orbits.
  EXPECT_GT(orbits_checked, 0u);
}

TEST(SymQuotient, PermutationInvarianceIis) {
  sym::ScopedSymmetry on(true);
  const auto rule = min_after_round(2);
  IisModel model(3, *rule);
  check_permutation_invariance(model, 2);
}

TEST(SymQuotient, PermutationInvarianceSnapshot) {
  sym::ScopedSymmetry on(true);
  const auto rule = min_after_round(2);
  SnapshotModel model(3, *rule);
  check_permutation_invariance(model, 2);
}

TEST(SymQuotient, PermutationInvarianceMsgPass) {
  sym::ScopedSymmetry on(true);
  const auto rule = min_after_round(2);
  MsgPassModel model(3, *rule);
  check_permutation_invariance(model, 1);
}

// Orbit-weighted per-level counts of the quotient equal the raw per-level
// counts of the full exploration: new-at-depth sets are orbit-closed.
template <typename ModelT, typename... Args>
void check_weighted_counts(int depth, Args&&... args) {
  std::vector<std::size_t> full_counts;
  {
    sym::ScopedSymmetry off(false);
    ModelT model(std::forward<Args>(args)...);
    ASSERT_FALSE(model.sym_quotient_active());
    for (const auto& level : reachable_by_depth(model, depth)) {
      full_counts.push_back(level.size());
    }
  }
  sym::ScopedSymmetry on(true);
  ModelT model(std::forward<Args>(args)...);
  ASSERT_TRUE(model.sym_quotient_active());
  const auto levels = reachable_by_depth(model, depth);
  ASSERT_EQ(levels.size(), full_counts.size());
  for (std::size_t d = 0; d < levels.size(); ++d) {
    std::uint64_t weighted = 0;
    for (const StateId x : levels[d]) weighted += model.orbit_weight(x);
    EXPECT_EQ(weighted, full_counts[d]) << "depth " << d;
    EXPECT_LE(levels[d].size(), full_counts[d]);
  }
}

TEST(SymQuotient, WeightedCountsMatchFullIis) {
  const auto rule = min_after_round(2);
  check_weighted_counts<IisModel>(2, 3, *rule);
}

TEST(SymQuotient, WeightedCountsMatchFullSnapshot) {
  const auto rule = min_after_round(2);
  check_weighted_counts<SnapshotModel>(2, 3, *rule);
}

TEST(SymQuotient, WeightedCountsMatchFullMsgPass) {
  const auto rule = never_decide();
  check_weighted_counts<MsgPassModel>(1, 3, *rule);
}

// The acceptance bar: >= 2x state reduction at n >= 4 on a symmetric model,
// with arena.sym_folds recording the folds.
TEST(SymQuotient, AtLeastTwofoldReductionAtN4) {
  const auto rule = min_after_round(2);
  std::size_t full_total = 0;
  {
    sym::ScopedSymmetry off(false);
    IisModel model(4, *rule);
    for (const auto& level : reachable_by_depth(model, 1)) {
      full_total += level.size();
    }
  }
  auto& folds = runtime::Stats::global().counter("arena.sym_folds");
  const std::uint64_t folds_before = folds.value();
  sym::ScopedSymmetry on(true);
  IisModel model(4, *rule);
  std::size_t quotient_total = 0;
  std::uint64_t weighted_total = 0;
  for (const auto& level : reachable_by_depth(model, 1)) {
    quotient_total += level.size();
    for (const StateId x : level) weighted_total += model.orbit_weight(x);
  }
  EXPECT_EQ(weighted_total, full_total);
  EXPECT_GE(full_total, 2 * quotient_total);
  EXPECT_GT(folds.value(), folds_before);
}

// Asymmetric models never quotient, even with the knob forced on.
TEST(SymQuotient, TrivialModelUnaffected) {
  sym::ScopedSymmetry on(true);
  const auto rule = min_after_round(2);
  MobileModel model(3, *rule);
  EXPECT_FALSE(model.sym_quotient_active());
  const StateId x = model.initial_states().front();
  EXPECT_EQ(model.orbit_weight(x), 1u);
  EXPECT_EQ(model.unfold_orbit(x), std::vector<StateId>{x});
}

// A symmetric model constructed with inputs that are NOT permutation-closed
// must silently degrade to the trivial quotient (wrong verdicts otherwise).
TEST(SymQuotient, NonClosedInputsDegrade) {
  sym::ScopedSymmetry on(true);
  const auto rule = never_decide();
  IisModel open_model(3, *rule, {{0, 1, 1}});
  EXPECT_FALSE(open_model.sym_quotient_active());
  IisModel closed_model(3, *rule, {{0, 1, 1}, {1, 0, 1}, {1, 1, 0}});
  EXPECT_TRUE(closed_model.sym_quotient_active());
  // The three orbit-equivalent assignments fold onto ONE canonical initial
  // state (initial_states deduplicates).
  EXPECT_EQ(closed_model.initial_states().size(), 1u);
  EXPECT_EQ(closed_model.orbit_weight(closed_model.initial_states()[0]), 3u);
}

}  // namespace
}  // namespace lacon
