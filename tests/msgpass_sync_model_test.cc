// Tests for the synchronic layering over asynchronous message passing —
// the paper's "completely analogous proof for message passing" remark made
// executable. The structure must mirror the shared-memory S^rw tests,
// message-persistence effects included.
#include <gtest/gtest.h>

#include "core/decision_rule.hpp"
#include "engine/bivalence.hpp"
#include "engine/lemmas.hpp"
#include "engine/spec.hpp"
#include "models/msgpass/msgpass_model.hpp"
#include "models/msgpass/msgpass_sync_model.hpp"
#include "relation/similarity.hpp"

namespace lacon {
namespace {

TEST(MsgPassSync, TimedZeroIsIndependentOfJ) {
  auto rule = never_decide();
  MsgPassSyncModel model(3, *rule);
  const StateId x0 = model.initial_states().back();
  const StateId base = model.apply_timed(x0, 0, 0);
  for (ProcessId j = 1; j < 3; ++j) {
    EXPECT_EQ(model.apply_timed(x0, j, 0), base);
  }
}

TEST(MsgPassSync, AbsentProcessFrozen) {
  auto rule = never_decide();
  MsgPassSyncModel model(3, *rule);
  const StateId x0 = model.initial_states().front();
  const StateId y = model.apply_absent(x0, 1);
  EXPECT_EQ(model.state(y).locals[1], model.state(x0).locals[1]);
  EXPECT_NE(model.state(y).locals[0], model.state(x0).locals[0]);
  // The proper processes' messages to 1 pile up in 1's mailbox.
  int to_1 = 0;
  for (std::int64_t m : model.state(y).env) {
    if (message_receiver(m) == 1) ++to_1;
  }
  EXPECT_EQ(to_1, 2);
}

TEST(MsgPassSync, EarlyReadersMissTheSlowMessage) {
  auto rule = never_decide();
  MsgPassSyncModel model(3, *rule);
  const StateId x0 = model.initial_states().front();
  // (j=0, k=n): the proper processes receive in R1, before 0's S2 send.
  const StateId y = model.apply_timed(x0, 0, 3);
  const ViewRef v1 = model.views().node(model.state(y).locals[1]);
  for (const Obs& o : v1.obs) {
    EXPECT_NE(o.source, 0) << "R1 receiver must miss the S2 message";
  }
  // 0's message is still in transit, addressed to 1 and 2.
  int from_0 = 0;
  for (std::int64_t m : model.state(y).env) {
    if (message_sender(m) == 0) ++from_0;
  }
  EXPECT_EQ(from_0, 2);
  // The slow process itself received everything.
  const ViewRef v0 = model.views().node(model.state(y).locals[0]);
  EXPECT_EQ(v0.obs.size(), 2u);
}

TEST(MsgPassSync, StaleMessageArrivesNextRound) {
  // Message persistence: after x(j,n), the next round delivers j's stale
  // message — the register analogue is reading V_j's old value.
  auto rule = never_decide();
  MsgPassSyncModel model(3, *rule);
  const StateId x0 = model.initial_states().front();
  const StateId y = model.apply_timed(x0, 0, 3);
  const StateId z = model.apply_absent(y, 0);
  const ViewRef v1 = model.views().node(model.state(z).locals[1]);
  bool saw_stale = false;
  for (const Obs& o : v1.obs) {
    if (o.source == 0 && o.view == model.state(x0).locals[0]) saw_stale = true;
  }
  EXPECT_TRUE(saw_stale);
}

TEST(MsgPassSync, Lemma53BridgeAgreesModuloJ) {
  auto rule = never_decide();
  for (int n : {2, 3}) {
    MsgPassSyncModel model(n, *rule);
    for (StateId x0 : {model.initial_states().front(),
                       model.initial_states().back()}) {
      for (ProcessId j = 0; j < n; ++j) {
        const StateId y = model.apply_absent(model.apply_timed(x0, j, n), j);
        const StateId yp =
            model.apply_timed(model.apply_absent(x0, j), j, 0);
        EXPECT_TRUE(model.agree_modulo(y, yp, j)) << "n=" << n << " j=" << j;
        EXPECT_TRUE(similar(model, y, yp));
      }
    }
  }
}

TEST(MsgPassSync, TimedSubsetSimilarityConnected) {
  auto rule = never_decide();
  MsgPassSyncModel model(3, *rule);
  const StateId x0 = model.initial_states().front();
  std::vector<StateId> Y;
  for (ProcessId j = 0; j < 3; ++j) {
    for (int k = 0; k <= 3; ++k) Y.push_back(model.apply_timed(x0, j, k));
  }
  std::sort(Y.begin(), Y.end());
  Y.erase(std::unique(Y.begin(), Y.end()), Y.end());
  EXPECT_TRUE(similarity_connected(model, Y));
}

TEST(MsgPassSync, EnvRendersMessagesAndRefusesForeignOnes) {
  // The in-transit multiset renders as view terms, and env_well_formed
  // refuses a message addressed to process n and one naming a view at
  // views_end.
  auto rule = never_decide();
  MsgPassSyncModel model(3, *rule);
  const StateId x0 = model.initial_states().front();
  const StateId y = model.apply_absent(x0, 1);
  const std::vector<std::int64_t> env(model.state(y).env.begin(),
                                      model.state(y).env.end());
  ASSERT_EQ(env.size(), 2u);  // 0->1 and 2->1, waiting in 1's mailbox
  const std::string pre0 = model.views().to_string(model.state(x0).locals[0]);
  const std::string pre2 = model.views().to_string(model.state(x0).locals[2]);
  EXPECT_EQ(model.env_to_string(y), "0->1:" + pre0 + ",2->1:" + pre2 + ",");

  const std::uint64_t views_end = model.num_views();
  EXPECT_TRUE(model.env_well_formed(env, views_end));
  std::vector<std::int64_t> to_n = env;
  to_n[0] = pack_message(0, 3, message_view(env[0]));
  EXPECT_FALSE(model.env_well_formed(to_n, views_end));
  std::vector<std::int64_t> past_views = env;
  past_views[0] = pack_message(0, 1, static_cast<ViewId>(views_end));
  EXPECT_FALSE(model.env_well_formed(past_views, views_end));
}

TEST(MsgPassSync, LayerValenceConnectedAndBivalentRunExtends) {
  auto rule = min_after_round(2);
  MsgPassSyncModel model(3, *rule);
  const CheckResult connectivity = check_layer_connectivity(
      model, 1, 3, /*expect_similarity=*/false, Exactness::kConvergence);
  EXPECT_TRUE(connectivity.ok) << connectivity.detail;

  ValenceEngine engine(model, 3, Exactness::kConvergence);
  const BivalentRunResult run = extend_bivalent_run(engine, 4);
  EXPECT_TRUE(run.complete) << run.stuck_reason;
}

TEST(MsgPassSync, Lemma36AndTrilemma) {
  auto rule = min_after_round(2);
  MsgPassSyncModel model(3, *rule);
  const CheckResult lemma36 =
      check_lemma_3_6(model, 3, Exactness::kConvergence);
  EXPECT_TRUE(lemma36.ok) << lemma36.detail;

  MsgPassSyncModel model2(3, *rule);
  const TrilemmaVerdict v = consensus_trilemma(model2, 3, 3);
  EXPECT_NE(v.violated, TrilemmaVerdict::Violated::kNone);
}

TEST(MsgPassSync, AtMostOneProcessSkipsEachRound) {
  auto rule = never_decide();
  MsgPassSyncModel model(3, *rule);
  const StateId x0 = model.initial_states().front();
  for (StateId y : model.layer(x0)) {
    int stayed = 0;
    for (ProcessId i = 0; i < 3; ++i) {
      if (model.state(y).locals[static_cast<std::size_t>(i)] ==
          model.state(x0).locals[static_cast<std::size_t>(i)]) {
        ++stayed;
      }
    }
    EXPECT_LE(stayed, 1);  // the S^sync-runs are fair
  }
}

}  // namespace
}  // namespace lacon
