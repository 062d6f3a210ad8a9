// LayeredModel conformance battery: structural invariants every model must
// satisfy, run against all five models (the four of the paper plus IIS),
// and the successor-builder reuse check for all seven models.
#include <algorithm>
#include <functional>
#include <memory>

#include <gtest/gtest.h>

#include "core/decision_rule.hpp"
#include "core/sym.hpp"
#include "engine/explore.hpp"
#include "models/iis/iis_model.hpp"
#include "models/mobile/mobile_model.hpp"
#include "models/msgpass/msgpass_model.hpp"
#include "models/msgpass/msgpass_sync_model.hpp"
#include "models/sharedmem/sharedmem_model.hpp"
#include "models/snapshot/snapshot_model.hpp"
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

// compute_layer builds every successor of a layer in one reused
// SuccessorBuilder; the public per-action entries build each in a fresh
// one. Nothing may carry over from one successor to the next (a mailbox
// left in the env, a stale observation, a register or decision not
// reset), so for every state to depth 2 at n = 3, layer(x) must equal the
// sorted, deduplicated successors built one action at a time.
using Successors = std::function<void(StateId, std::vector<StateId>*)>;

void expect_layers_match_fresh_builds(LayeredModel& model,
                                      const Successors& one_at_a_time) {
  const std::vector<StateId> states = reachable_states(model, 2);
  ASSERT_GT(states.size(), model.initial_states().size());
  for (const StateId x : states) {
    std::vector<StateId> fresh;
    one_at_a_time(x, &fresh);
    std::sort(fresh.begin(), fresh.end());
    fresh.erase(std::unique(fresh.begin(), fresh.end()), fresh.end());
    ASSERT_EQ(model.layer(x), fresh) << model.name() << " at state " << x;
  }
}

TEST(SuccessorBuilderReuse, Mobile) {
  const auto rule = min_after_round(2);
  MobileModel model(3, *rule);
  expect_layers_match_fresh_builds(
      model, [&](StateId x, std::vector<StateId>* out) {
        for (ProcessId j = 0; j < 3; ++j) {
          for (int k = 0; k <= 3; ++k) out->push_back(model.apply(x, j, k));
        }
      });
}

template <typename ModelT>
Successors timed_and_absent(ModelT& model) {
  return [&model](StateId x, std::vector<StateId>* out) {
    for (ProcessId j = 0; j < 3; ++j) {
      for (int k = 0; k <= 3; ++k) {
        out->push_back(model.apply_timed(x, j, k));
      }
      out->push_back(model.apply_absent(x, j));
    }
  };
}

TEST(SuccessorBuilderReuse, SharedMem) {
  const auto rule = min_after_round(2);
  SharedMemModel model(3, *rule);
  expect_layers_match_fresh_builds(model, timed_and_absent(model));
}

TEST(SuccessorBuilderReuse, MsgPassSync) {
  const auto rule = min_after_round(2);
  MsgPassSyncModel model(3, *rule);
  expect_layers_match_fresh_builds(model, timed_and_absent(model));
}

// At t = 1 both layerings allow exactly the failure-free round and one
// newly failed process losing a prefix [k], k >= 1, while none has failed.
TEST(SuccessorBuilderReuse, Sync) {
  const auto rule = min_after_round(2);
  for (const SyncLayering layering :
       {SyncLayering::kOnePerRound, SyncLayering::kMultiFailure}) {
    SyncModel model(3, 1, *rule, {}, layering);
    expect_layers_match_fresh_builds(
        model, [&](StateId x, std::vector<StateId>* out) {
          std::vector<int> losses(3, 0);
          out->push_back(model.apply_multi(x, losses));
          if (!model.failed_at(x).empty()) return;
          for (ProcessId j = 0; j < 3; ++j) {
            for (int k = 1; k <= 3; ++k) {
              losses[static_cast<std::size_t>(j)] = k;
              out->push_back(model.apply_multi(x, losses));
            }
            losses[static_cast<std::size_t>(j)] = 0;
          }
        });
  }
}

// The three models the symmetry quotient applies to run once raw and once
// with the canonicalizer folding the reused builder in place.
class SuccessorBuilderReuseQuotient : public ::testing::TestWithParam<bool> {
 protected:
  sym::ScopedSymmetry symmetry_{GetParam()};
  std::unique_ptr<DecisionRule> rule_ = min_after_round(2);
};

TEST_P(SuccessorBuilderReuseQuotient, MsgPass) {
  MsgPassModel model(3, *rule_);
  EXPECT_EQ(model.sym_quotient_active(), GetParam());
  expect_layers_match_fresh_builds(
      model, [&](StateId x, std::vector<StateId>* out) {
        for (const Schedule& schedule : model.schedules()) {
          out->push_back(model.apply_schedule(x, schedule));
        }
      });
}

TEST_P(SuccessorBuilderReuseQuotient, Iis) {
  IisModel model(3, *rule_);
  EXPECT_EQ(model.sym_quotient_active(), GetParam());
  expect_layers_match_fresh_builds(
      model, [&](StateId x, std::vector<StateId>* out) {
        for (const OrderedPartition& p : all_ordered_partitions(3)) {
          out->push_back(model.apply_partition(x, p));
        }
      });
}

TEST_P(SuccessorBuilderReuseQuotient, Snapshot) {
  SnapshotModel model(3, *rule_);
  EXPECT_EQ(model.sym_quotient_active(), GetParam());
  expect_layers_match_fresh_builds(
      model, [&](StateId x, std::vector<StateId>* out) {
        // Everyone participates, or everyone but one slow process.
        std::vector<ProcessSet> participants = {ProcessSet::all(3)};
        for (ProcessId j = 0; j < 3; ++j) {
          participants.push_back(ProcessSet::all(3) - ProcessSet::single(j));
        }
        for (const ProcessSet members : participants) {
          for (const OrderedPartition& p : ordered_partitions_of(members)) {
            out->push_back(model.apply_partition(x, p));
          }
        }
      });
}

INSTANTIATE_TEST_SUITE_P(Quotient, SuccessorBuilderReuseQuotient,
                         ::testing::Bool(), [](const auto& info) {
                           return info.param ? "On" : "Off";
                         });

}  // namespace
}  // namespace lacon
