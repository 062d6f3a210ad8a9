// Tests for the mobile-failure model M^mf and the synchronic layering S1
// (Section 5): layer anatomy and the state identities the proof of
// Lemma 5.1 rests on.
#include <gtest/gtest.h>

#include "core/decision_rule.hpp"
#include "models/mobile/mobile_model.hpp"
#include "relation/similarity.hpp"

namespace lacon {
namespace {

class MobileFixture : public ::testing::TestWithParam<int> {
 protected:
  std::unique_ptr<DecisionRule> rule_ = never_decide();
};

TEST_P(MobileFixture, LayerSizeIsNSquaredMinusNPlusOne) {
  const int n = GetParam();
  MobileModel model(n, *rule_);
  const StateId x0 = model.initial_states().front();
  // n*(n+1) actions collapse to n^2-n+1 distinct states: all (j,[0]) (and
  // (j,[k]) whose only loss would be j's message to itself) coincide with
  // the failure-free successor.
  EXPECT_EQ(model.layer(x0).size(),
            static_cast<std::size_t>(n * n - n + 1));
}

TEST_P(MobileFixture, NoLossActionsCoincide) {
  const int n = GetParam();
  MobileModel model(n, *rule_);
  const StateId x0 = model.initial_states().front();
  const StateId base = model.apply(x0, 0, 0);
  for (ProcessId j = 0; j < n; ++j) {
    EXPECT_EQ(model.apply(x0, j, 0), base);
    // Losing only j's message to itself is no loss at all.
    EXPECT_EQ(model.apply(x0, j, j + 1), model.apply(x0, j, j));
  }
}

TEST_P(MobileFixture, SimilarityChainAcrossPrefixes) {
  const int n = GetParam();
  MobileModel model(n, *rule_);
  const StateId x0 = model.initial_states().back();
  for (ProcessId j = 0; j < n; ++j) {
    for (int k = 0; k < n; ++k) {
      const StateId a = model.apply(x0, j, k);
      const StateId b = model.apply(x0, j, k + 1);
      if (a == b) continue;
      // The two states differ exactly in the local state of process k
      // (0-based), which missed j's message in b but not in a.
      EXPECT_TRUE(model.agree_modulo(a, b, k));
      EXPECT_TRUE(similar(model, a, b));
    }
  }
}

TEST_P(MobileFixture, LayersAreSimilarityConnected) {
  const int n = GetParam();
  MobileModel model(n, *rule_);
  const StateId x0 = model.initial_states().front();
  EXPECT_TRUE(similarity_connected(model, model.layer(x0)));
  // One layer deeper too.
  const StateId x1 = model.layer(x0)[1];
  EXPECT_TRUE(similarity_connected(model, model.layer(x1)));
}

TEST_P(MobileFixture, NoFiniteFailure) {
  const int n = GetParam();
  MobileModel model(n, *rule_);
  const StateId x0 = model.initial_states().front();
  EXPECT_TRUE(model.failed_at(x0).empty());
  for (StateId y : model.layer(x0)) {
    EXPECT_TRUE(model.failed_at(y).empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MobileFixture, ::testing::Values(2, 3, 4, 5));

TEST(MobileModel, S1IsASubmodelOfTheFullSantoroWidmayerLayer) {
  // Lemma 5.1(i): S1 restricts the environment's loss sets to prefixes
  // [k], so every S1 successor is a full-model successor; for n >= 3 the
  // full layer { x(j,G) : G arbitrary } is strictly richer.
  auto rule = never_decide();
  MobileModel model(3, *rule);
  const StateId x0 = model.initial_states().front();
  const auto& s1 = model.layer(x0);
  const auto full = model.full_layer(x0);
  for (StateId y : s1) {
    EXPECT_NE(std::find(full.begin(), full.end(), y), full.end());
  }
  EXPECT_GT(full.size(), s1.size());
  // Full-layer count: the no-loss state plus, per j, every non-trivial
  // loss pattern G \ {j}: n * (2^(n-1) - 1) + 1 = 3*3+1... G ranges over
  // subsets of receivers other than j: 2^(n-1)-1 non-empty per j.
  EXPECT_EQ(full.size(), static_cast<std::size_t>(3 * (4 - 1) + 1));
}

TEST(MobileModel, FullLayerAlsoSimilarityConnected) {
  // The Santoro–Widmayer impossibility needs connectivity of the full
  // layer too; prefix chains generalize to single-element toggles.
  auto rule = never_decide();
  MobileModel model(3, *rule);
  const StateId x0 = model.initial_states().back();
  EXPECT_TRUE(similarity_connected(model, model.full_layer(x0)));
}

TEST(MobileModel, GeneralActionTogglesOneReceiver) {
  auto rule = never_decide();
  MobileModel model(4, *rule);
  const StateId x0 = model.initial_states().front();
  ProcessSet g;
  g.insert(1);
  g.insert(3);
  const StateId a = model.apply_general(x0, 0, g);
  ProcessSet g2 = g;
  g2.insert(2);
  const StateId b = model.apply_general(x0, 0, g2);
  EXPECT_TRUE(model.agree_modulo(a, b, 2));
  EXPECT_TRUE(similar(model, a, b));
}

TEST(MobileModel, RoundsAdvanceUniformly) {
  auto rule = never_decide();
  MobileModel model(3, *rule);
  StateId x = model.initial_states().front();
  for (int d = 1; d <= 3; ++d) {
    x = model.layer(x).front();
    for (ViewId v : model.state(x).locals) {
      EXPECT_EQ(model.views().node(v).round, d);
    }
  }
}

TEST(MobileModel, SilencedProcessViewStillAdvances) {
  // A silenced process keeps receiving and computing (sending-omission).
  auto rule = never_decide();
  MobileModel model(3, *rule);
  const StateId x0 = model.initial_states().front();
  const StateId y = model.apply(x0, 1, 3);  // j=1 silent to everyone
  EXPECT_EQ(model.views().node(model.state(y).locals[1]).round, 1);
  // Processes 0 and 2 observed an absence from 1.
  const ViewRef v0 = model.views().node(model.state(y).locals[0]);
  bool missing_from_1 = false;
  for (const Obs& o : v0.obs) {
    if (o.source == 1 && o.view == kNoView) missing_from_1 = true;
  }
  EXPECT_TRUE(missing_from_1);
}

TEST(MobileModel, DecisionRuleWritesWriteOnce) {
  auto rule = min_after_round(1);
  MobileModel model(3, *rule);
  const StateId x0 = model.initial_states().front();  // all inputs 0
  const StateId y = model.apply(x0, 0, 0);
  for (Value d : model.state(y).decisions) EXPECT_EQ(d, 0);
  // Further rounds do not overwrite d_i.
  const StateId z = model.apply(y, 2, 3);
  for (Value d : model.state(z).decisions) EXPECT_EQ(d, 0);
}

TEST(MobileModel, MinRuleSeesOmission) {
  auto rule = min_after_round(1);
  MobileModel model(3, *rule);
  // Inputs 0,1,1: initial state index 1 in the sorted enumeration order is
  // not guaranteed, so find it by inspecting views.
  StateId x0 = 0;
  bool found = false;
  for (StateId s : model.initial_states()) {
    const auto& locals = model.state(s).locals;
    if (model.views().node(locals[0]).input == 0 &&
        model.views().node(locals[1]).input == 1 &&
        model.views().node(locals[2]).input == 1) {
      x0 = s;
      found = true;
    }
  }
  ASSERT_TRUE(found);
  // Process 0 silenced entirely: the others never see the 0 input and
  // decide 1, process 0 decides 0 — the agreement hazard that makes
  // min-after-round-k fail as a consensus protocol here.
  const StateId y = model.apply(x0, 0, 3);
  const auto& d = model.state(y).decisions;
  EXPECT_EQ(d[0], 0);
  EXPECT_EQ(d[1], 1);
  EXPECT_EQ(d[2], 1);
}

}  // namespace
}  // namespace lacon
