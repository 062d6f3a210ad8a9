// Tests for the shared-memory model M^rw and the synchronic layering S^rw
// (Section 5.1), including the valence-bridge state identity from the proof
// of Lemma 5.3: y = x(j,n)(j,A) and y' = x(j,A)(j,0) agree modulo j.
#include <gtest/gtest.h>

#include "core/decision_rule.hpp"
#include "models/sharedmem/sharedmem_model.hpp"
#include "relation/similarity.hpp"

namespace lacon {
namespace {

TEST(SharedMem, RegistersStartUnwritten) {
  auto rule = never_decide();
  SharedMemModel model(3, *rule);
  const StateId x0 = model.initial_states().front();
  for (std::int64_t reg : model.state(x0).env) {
    EXPECT_EQ(reg, static_cast<std::int64_t>(kNoView));
  }
}

TEST(SharedMem, TimedActionWritesAllRegisters) {
  auto rule = never_decide();
  SharedMemModel model(3, *rule);
  const StateId x0 = model.initial_states().front();
  const StateId y = model.apply_timed(x0, 1, 2);
  const StateRef sx = model.state(x0);
  const StateRef sy = model.state(y);
  // Registers hold the pre-phase views (the write precedes the reads).
  for (ProcessId i = 0; i < 3; ++i) {
    EXPECT_EQ(sy.env[static_cast<std::size_t>(i)],
              static_cast<std::int64_t>(sx.locals[static_cast<std::size_t>(i)]));
  }
}

TEST(SharedMem, AbsentProcessUnchanged) {
  auto rule = never_decide();
  SharedMemModel model(3, *rule);
  const StateId x0 = model.initial_states().front();
  const StateId y = model.apply_absent(x0, 2);
  const StateRef sx = model.state(x0);
  const StateRef sy = model.state(y);
  EXPECT_EQ(sy.locals[2], sx.locals[2]);          // no local phase
  EXPECT_EQ(sy.env[2], sx.env[2]);                // register untouched
  EXPECT_NE(sy.locals[0], sx.locals[0]);          // proper processes moved
  EXPECT_NE(sy.locals[1], sx.locals[1]);
}

TEST(SharedMem, TimedZeroIsIndependentOfJ) {
  auto rule = never_decide();
  SharedMemModel model(4, *rule);
  const StateId x0 = model.initial_states().back();
  const StateId base = model.apply_timed(x0, 0, 0);
  for (ProcessId j = 1; j < 4; ++j) {
    EXPECT_EQ(model.apply_timed(x0, j, 0), base);
  }
}

TEST(SharedMem, EarlyReadersMissTheSlowWrite) {
  auto rule = never_decide();
  SharedMemModel model(3, *rule);
  const StateId x0 = model.initial_states().front();
  // (j=0, k=n): every proper process reads in R1 and misses 0's W2 write;
  // only 0 itself reads in R2 and sees it.
  const StateId y = model.apply_timed(x0, 0, 3);
  const StateRef sx = model.state(x0);
  const StateRef sy = model.state(y);
  const ViewRef v1 = model.views().node(sy.locals[1]);
  bool saw_stale_v0 = false;
  for (const Obs& o : v1.obs) {
    if (o.source == 0) saw_stale_v0 = (o.view == kNoView);  // unwritten V_0
  }
  EXPECT_TRUE(saw_stale_v0);
  const ViewRef v0 = model.views().node(sy.locals[0]);
  bool saw_fresh_v0 = false;
  for (const Obs& o : v0.obs) {
    if (o.source == 0) saw_fresh_v0 = (o.view == sx.locals[0]);
  }
  EXPECT_TRUE(saw_fresh_v0);
}

TEST(SharedMem, Lemma53BridgeStatesAgreeModuloJ) {
  auto rule = never_decide();
  for (int n : {2, 3, 4}) {
    SharedMemModel model(n, *rule);
    for (StateId x0 : {model.initial_states().front(),
                       model.initial_states().back()}) {
      for (ProcessId j = 0; j < n; ++j) {
        const StateId y = model.apply_absent(model.apply_timed(x0, j, n), j);
        const StateId yp = model.apply_timed(model.apply_absent(x0, j), j, 0);
        EXPECT_NE(y, yp);  // j's own view differs ...
        EXPECT_TRUE(model.agree_modulo(y, yp, j))
            << "n=" << n << " j=" << j;  // ... but nothing else does
        EXPECT_TRUE(similar(model, y, yp));
      }
    }
  }
}

TEST(SharedMem, LayerSizeAndComposition) {
  auto rule = never_decide();
  SharedMemModel model(3, *rule);
  const StateId x0 = model.initial_states().front();
  const auto& layer = model.layer(x0);
  // n(n+1) timed actions + n absent actions, with the (j,0) states
  // coinciding across j (and possibly further coincidences).
  EXPECT_LE(layer.size(), static_cast<std::size_t>(3 * 4 + 3));
  EXPECT_GT(layer.size(), static_cast<std::size_t>(3));
}

TEST(SharedMem, TimedSubsetOfLayerIsSimilarityConnected) {
  // The proof of Lemma 5.3 shows the subset Y = {x(j,k)} is similarity
  // connected; the absent states are bridged by valence only.
  auto rule = never_decide();
  SharedMemModel model(3, *rule);
  const StateId x0 = model.initial_states().front();
  std::vector<StateId> Y;
  for (ProcessId j = 0; j < 3; ++j) {
    for (int k = 0; k <= 3; ++k) Y.push_back(model.apply_timed(x0, j, k));
  }
  std::sort(Y.begin(), Y.end());
  Y.erase(std::unique(Y.begin(), Y.end()), Y.end());
  EXPECT_TRUE(similarity_connected(model, Y));
}

TEST(SharedMem, AtMostOneProcessSkipsEachRound) {
  auto rule = never_decide();
  SharedMemModel model(3, *rule);
  const StateId x0 = model.initial_states().front();
  for (StateId y : model.layer(x0)) {
    int stayed = 0;
    for (ProcessId i = 0; i < 3; ++i) {
      if (model.state(y).locals[static_cast<std::size_t>(i)] ==
          model.state(x0).locals[static_cast<std::size_t>(i)]) {
        ++stayed;
      }
    }
    EXPECT_LE(stayed, 1);  // the S^rw-runs are fair
  }
}

TEST(SharedMem, AlmostSynchronousRoundKnowledge) {
  // The paper's "strongest explicit FLP" remark: in the S^rw submodel, in
  // every round at least n-1 processes perform a full phase, so under the
  // full-information protocol at least n-1 processes always know the
  // current virtual round number (their view round equals the layer depth).
  auto rule = never_decide();
  SharedMemModel model(3, *rule);
  std::vector<StateId> frontier = model.initial_states();
  for (int depth = 1; depth <= 3; ++depth) {
    std::vector<StateId> next;
    for (StateId x : frontier) {
      for (StateId y : model.layer(x)) next.push_back(y);
    }
    std::sort(next.begin(), next.end());
    next.erase(std::unique(next.begin(), next.end()), next.end());
    for (StateId y : next) {
      int at_current_round = 0;
      for (ViewId v : model.state(y).locals) {
        if (model.views().node(v).round == depth) ++at_current_round;
      }
      EXPECT_GE(at_current_round, 2) << "depth " << depth;
    }
    // Follow only the all-proper successors to keep the sweep bounded while
    // still covering every action at the final depth.
    frontier.clear();
    for (StateId y : next) {
      bool all_current = true;
      for (ViewId v : model.state(y).locals) {
        if (model.views().node(v).round != depth) all_current = false;
      }
      if (all_current) frontier.push_back(y);
    }
  }
}

TEST(SharedMem, NoFiniteFailure) {
  auto rule = never_decide();
  SharedMemModel model(3, *rule);
  const StateId x0 = model.initial_states().front();
  EXPECT_TRUE(model.failed_at(x0).empty());
  for (StateId y : model.layer(x0)) EXPECT_TRUE(model.failed_at(y).empty());
}

}  // namespace
}  // namespace lacon
