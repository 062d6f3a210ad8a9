// Tests for the t-resilient synchronous model and the S^t layering
// (Section 6): failure recording, silencing, layer structure, and the
// similarity bridges used by Lemmas 6.1 and 6.2.
#include <unordered_set>

#include <gtest/gtest.h>

#include "core/decision_rule.hpp"
#include "engine/explore.hpp"
#include "models/synchronous/sync_model.hpp"
#include "relation/similarity.hpp"

namespace lacon {
namespace {

TEST(SyncModel, OmissionMarksSenderFailed) {
  auto rule = never_decide();
  SyncModel model(4, 2, *rule);
  const StateId x0 = model.initial_states().front();
  EXPECT_TRUE(model.failed_at(x0).empty());
  const StateId y = model.apply(x0, 1, 2);  // j=1 loses msgs to {0,1}
  EXPECT_EQ(model.failed_at(y).to_vector(), (std::vector<ProcessId>{1}));
  // A failure-free round leaves the failed set unchanged.
  const StateId z = model.apply(y, 0, 0);
  EXPECT_EQ(model.failed_at(z).to_vector(), (std::vector<ProcessId>{1}));
}

TEST(SyncModel, NoLossRoundFailsNobody) {
  auto rule = never_decide();
  SyncModel model(3, 1, *rule);
  const StateId x0 = model.initial_states().front();
  const StateId y = model.apply(x0, 2, 0);
  EXPECT_TRUE(model.failed_at(y).empty());
}

TEST(SyncModel, FailedProcessSilencedForever) {
  auto rule = never_decide();
  SyncModel model(3, 1, *rule);
  const StateId x0 = model.initial_states().front();
  // j=0 loses messages only to process 0's first receiver — say to {0}:
  // k=1 means process 0 misses it; but 0's message to itself does not
  // exist, so use k=2 (processes 0 and 1 miss it).
  const StateId y = model.apply(x0, 0, 2);
  ASSERT_EQ(model.failed_at(y).to_vector(), (std::vector<ProcessId>{0}));
  // Next round is failure-free by action, yet 0 stays silenced: everyone
  // observes an absence from 0.
  const StateId z = model.apply(y, 1, 0);
  for (ProcessId i = 1; i < 3; ++i) {
    const ViewRef v = model.views().node(model.state(z).locals[i]);
    bool missing_from_0 = false;
    for (const Obs& o : v.obs) {
      if (o.source == 0 && o.view == kNoView) missing_from_0 = true;
    }
    EXPECT_TRUE(missing_from_0) << "process " << i;
  }
}

TEST(SyncModel, LayerShrinksToSingletonAtTFailures) {
  auto rule = never_decide();
  SyncModel model(3, 1, *rule);
  const StateId x0 = model.initial_states().front();
  // Before any failure: 1 (no-loss) + n non-failed j * n prefix choices,
  // minus coincidences.
  EXPECT_GT(model.layer(x0).size(), 1u);
  const StateId y = model.apply(x0, 0, 3);  // 0 crashes silently
  ASSERT_EQ(model.failed_at(y).size(), 1);
  // t = 1 reached: the unique extension is the failure-free round.
  EXPECT_EQ(model.layer(y).size(), 1u);
}

TEST(SyncModel, FailedCountNeverExceedsT) {
  auto rule = never_decide();
  SyncModel model(4, 2, *rule);
  for (StateId x : reachable_states(model, 3)) {
    EXPECT_LE(model.failed_at(x).size(), 2);
  }
}

TEST(SyncModel, SimilarityChainWithinOneFailure) {
  auto rule = never_decide();
  SyncModel model(4, 2, *rule);
  const StateId x0 = model.initial_states().back();
  for (int k = 1; k < 4; ++k) {
    const StateId a = model.apply(x0, 1, k);
    const StateId b = model.apply(x0, 1, k + 1);
    if (a == b) continue;
    EXPECT_TRUE(model.agree_modulo(a, b, k));
    EXPECT_TRUE(similar(model, a, b));
  }
}

TEST(SyncModel, BridgeFromFailureFreeToSingleOmission) {
  // x(·,[0]) ~s x(j,[1]): they differ only in the local state of the one
  // process that missed j's message — this needs the failure record to be
  // derived from the views rather than stored in the environment.
  auto rule = never_decide();
  SyncModel model(3, 1, *rule);
  const StateId x0 = model.initial_states().front();
  const StateId clean = model.apply(x0, 0, 0);
  const StateId omit = model.apply(x0, 1, 1);  // 1's msg to process 0 lost
  EXPECT_TRUE(model.agree_modulo(clean, omit, 0));
  EXPECT_TRUE(similar(model, clean, omit));
}

TEST(SyncModel, LayersAreSimilarityConnected) {
  auto rule = never_decide();
  SyncModel model(4, 2, *rule);
  const StateId x0 = model.initial_states().front();
  EXPECT_TRUE(similarity_connected(model, model.layer(x0)));
  // Also after one failure (Lemma 6.2 applies to any bivalent state with
  // fewer than t failures).
  const StateId y = model.apply(x0, 2, 4);
  ASSERT_EQ(model.failed_at(y).size(), 1);
  EXPECT_TRUE(similarity_connected(model, model.layer(y)));
}

TEST(SyncModel, UniqueExtensionAfterTFailuresIsDeterministic) {
  auto rule = min_after_round(3);
  SyncModel model(3, 1, *rule);
  const StateId x0 = model.initial_states().front();
  StateId x = model.apply(x0, 0, 3);
  for (int d = 0; d < 4; ++d) {
    const auto& layer = model.layer(x);
    ASSERT_EQ(layer.size(), 1u);
    x = layer.front();
  }
}

TEST(SyncModel, MultiFailureLayerAllowsSimultaneousCrashes) {
  auto rule = never_decide();
  SyncModel one(4, 2, *rule);
  SyncModel multi(4, 2, *rule, {}, SyncLayering::kMultiFailure);
  const StateId a = one.initial_states().front();
  const StateId b = multi.initial_states().front();
  EXPECT_GT(multi.layer(b).size(), one.layer(a).size());
  // Two processes silenced in the same round.
  const StateId y = multi.apply_multi(b, {4, 4, 0, 0});
  EXPECT_EQ(multi.failed_at(y).size(), 2);
}

TEST(SyncModel, GradedLevelsStayConnectedUnderFullRound) {
  // The mechanized sharpening of Lemma 7.6's application (see
  // EXPERIMENTS.md E5): the full round-2 state set of R_{S^t} is similarity
  // DISCONNECTED at t=2 (budget-exhausted states are isolated), while the
  // graded set — at most r failures by round r — under the full-round
  // successor is connected, with diameter within the Theorem 7.7 bound.
  auto rule = never_decide();
  SyncModel multi(4, 2, *rule, {}, SyncLayering::kMultiFailure);
  std::vector<StateId> level = multi.initial_states();
  for (int r = 1; r <= 2; ++r) {
    std::unordered_set<StateId> next;
    for (StateId x : level) {
      for (StateId y : multi.layer(x)) {
        if (multi.failed_at(y).size() <= r) next.insert(y);
      }
    }
    level.assign(next.begin(), next.end());
    std::sort(level.begin(), level.end());
  }
  const auto diam = s_diameter(multi, level);
  ASSERT_TRUE(diam.has_value());
  EXPECT_LE(*diam, 314u);  // diameter_bound(4, 2, 4)

  // Contrast: literal S^t (one new failure per round) disconnects at the
  // same depth.
  SyncModel one(4, 2, *rule);
  const auto levels = reachable_by_depth(one, 2);
  EXPECT_FALSE(s_diameter(one, levels[2]).has_value());
}

TEST(SyncModel, MaxFaultyReportsT) {
  auto rule = never_decide();
  SyncModel model(5, 3, *rule);
  EXPECT_EQ(model.max_faulty(), 3);
  EXPECT_EQ(model.t(), 3);
  EXPECT_EQ(model.name(), "Sync(t=3)/S^t");
}

}  // namespace
}  // namespace lacon
