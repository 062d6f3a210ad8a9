// LayeredModel conformance battery: structural invariants every model must
// satisfy, run against all five models (the four of the paper plus IIS).
#include <memory>

#include <gtest/gtest.h>

#include "core/decision_rule.hpp"
#include "engine/explore.hpp"
#include "models/iis/iis_model.hpp"
#include "models/mobile/mobile_model.hpp"
#include "models/msgpass/msgpass_model.hpp"
#include "models/sharedmem/sharedmem_model.hpp"
#include "models/synchronous/sync_model.hpp"

namespace lacon {
namespace {

enum class Kind { kMobile, kSharedMem, kMsgPass, kSync, kIis };

std::unique_ptr<LayeredModel> build(Kind kind, int n,
                                    const DecisionRule& rule) {
  switch (kind) {
    case Kind::kMobile:
      return std::make_unique<MobileModel>(n, rule);
    case Kind::kSharedMem:
      return std::make_unique<SharedMemModel>(n, rule);
    case Kind::kMsgPass:
      return std::make_unique<MsgPassModel>(n, rule);
    case Kind::kSync:
      return std::make_unique<SyncModel>(n, 1, rule);
    case Kind::kIis:
      return std::make_unique<IisModel>(n, rule);
  }
  return nullptr;
}

class Conformance : public ::testing::TestWithParam<Kind> {
 protected:
  std::unique_ptr<DecisionRule> rule_ = min_after_round(2);
  std::unique_ptr<LayeredModel> model_ = build(GetParam(), 3, *rule_);
};

TEST_P(Conformance, InitialStatesAreTheBinaryCube) {
  const auto& con0 = model_->initial_states();
  EXPECT_EQ(con0.size(), 8u);
  for (StateId x : con0) {
    const StateRef s = model_->state(x);
    for (ProcessId i = 0; i < 3; ++i) {
      EXPECT_EQ(s.decisions[static_cast<std::size_t>(i)], kUndecided);
      EXPECT_EQ(model_->views().node(s.locals[static_cast<std::size_t>(i)]).round,
                0);
    }
    EXPECT_TRUE(model_->failed_at(x).empty());  // condition (iii) of §3
  }
}

TEST_P(Conformance, LayersAreSortedDedupedAndStable) {
  const StateId x0 = model_->initial_states().front();
  const auto& layer1 = model_->layer(x0);
  ASSERT_FALSE(layer1.empty());
  for (std::size_t i = 1; i < layer1.size(); ++i) {
    EXPECT_LT(layer1[i - 1], layer1[i]);
  }
  // Caching returns the same object.
  EXPECT_EQ(&model_->layer(x0), &layer1);
}

TEST_P(Conformance, AgreeModuloIsReflexiveAndEnvSensitive) {
  const StateId x0 = model_->initial_states().front();
  for (ProcessId j = 0; j < 3; ++j) {
    EXPECT_TRUE(model_->agree_modulo(x0, x0, j));
  }
  // Two different initial states differ in some process's input, so they
  // can agree modulo at most that process.
  const StateId x1 = model_->initial_states()[1];
  int agreeing = 0;
  for (ProcessId j = 0; j < 3; ++j) {
    if (model_->agree_modulo(x0, x1, j)) ++agreeing;
  }
  EXPECT_LE(agreeing, 1);
}

TEST_P(Conformance, SuccessorsAdvanceSomeProcess) {
  const StateId x0 = model_->initial_states().front();
  for (StateId y : model_->layer(x0)) {
    ASSERT_NE(y, x0);
    int advanced = 0;
    for (ProcessId i = 0; i < 3; ++i) {
      const auto iu = static_cast<std::size_t>(i);
      if (model_->state(y).locals[iu] != model_->state(x0).locals[iu]) {
        ++advanced;
      }
    }
    EXPECT_GE(advanced, 2);  // all models keep >= n-1 processes moving
  }
}

TEST_P(Conformance, ViewsRecordMonotoneRounds) {
  for (StateId x : reachable_states(*model_, 2)) {
    const StateRef s = model_->state(x);
    for (ViewId v : s.locals) {
      const ViewRef node = model_->views().node(v);
      EXPECT_LE(node.round, 2);
      if (node.prev != kNoView) {
        EXPECT_EQ(model_->views().node(node.prev).round, node.round - 1);
        EXPECT_EQ(model_->views().node(node.prev).owner, node.owner);
      }
    }
  }
}

TEST_P(Conformance, DecisionsAreWriteOnceAlongLayers) {
  for (StateId x : reachable_states(*model_, 1)) {
    for (StateId y : model_->layer(x)) {
      for (ProcessId i = 0; i < 3; ++i) {
        const Value dx = model_->state(x).decisions[static_cast<std::size_t>(i)];
        const Value dy = model_->state(y).decisions[static_cast<std::size_t>(i)];
        if (dx != kUndecided) {
          EXPECT_EQ(dx, dy);
        }
      }
    }
  }
}

TEST_P(Conformance, FailedSetMonotoneAlongLayers) {
  for (StateId x : reachable_states(*model_, 2)) {
    const ProcessSet fx = model_->failed_at(x);
    for (StateId y : model_->layer(x)) {
      const ProcessSet fy = model_->failed_at(y);
      EXPECT_EQ(fx & fy, fx) << "failure evidence must persist";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllModels, Conformance,
                         ::testing::Values(Kind::kMobile, Kind::kSharedMem,
                                           Kind::kMsgPass, Kind::kSync,
                                           Kind::kIis),
                         [](const auto& info) {
                           switch (info.param) {
                             case Kind::kMobile: return "Mobile";
                             case Kind::kSharedMem: return "SharedMem";
                             case Kind::kMsgPass: return "MsgPass";
                             case Kind::kSync: return "Sync";
                             case Kind::kIis: return "Iis";
                           }
                           return "Unknown";
                         });

}  // namespace
}  // namespace lacon
