// Tests for the iterated immediate snapshot model: ordered-partition
// enumeration, immediate-snapshot semantics, similarity structure, and the
// impossibility machinery running on it.
#include <gtest/gtest.h>

#include "core/decision_rule.hpp"
#include "engine/bivalence.hpp"
#include "engine/spec.hpp"
#include "models/iis/iis_model.hpp"
#include "relation/similarity.hpp"

namespace lacon {
namespace {

OrderedPartition blocks(std::initializer_list<std::initializer_list<ProcessId>> bs) {
  OrderedPartition p;
  for (const auto& b : bs) {
    ProcessSet set;
    for (ProcessId i : b) set.insert(i);
    p.push_back(set);
  }
  return p;
}

TEST(Iis, OrderedPartitionCountsAreFubiniNumbers) {
  EXPECT_EQ(all_ordered_partitions(2).size(), 3u);
  EXPECT_EQ(all_ordered_partitions(3).size(), 13u);
  EXPECT_EQ(all_ordered_partitions(4).size(), 75u);
}

TEST(Iis, PartitionsCoverEveryProcessExactlyOnce) {
  for (const OrderedPartition& p : all_ordered_partitions(3)) {
    ProcessSet seen;
    int total = 0;
    for (const ProcessSet& block : p) {
      EXPECT_TRUE((seen & block).empty());
      seen = seen | block;
      total += block.size();
    }
    EXPECT_EQ(total, 3);
    EXPECT_EQ(seen, ProcessSet::all(3));
  }
}

TEST(Iis, BlockMembersSeeEachOther) {
  auto rule = never_decide();
  IisModel model(3, *rule);
  const StateId x0 = model.initial_states().front();
  // {0,1} first, then {2}: 0 and 1 see each other but not 2; 2 sees all.
  const StateId y = model.apply_partition(x0, blocks({{0, 1}, {2}}));
  const ViewRef v0 = model.views().node(model.state(y).locals[0]);
  ASSERT_EQ(v0.obs.size(), 1u);
  EXPECT_EQ(v0.obs[0].source, 1);
  const ViewRef v2 = model.views().node(model.state(y).locals[2]);
  EXPECT_EQ(v2.obs.size(), 2u);
}

TEST(Iis, SoloFirstProcessSeesNothing) {
  auto rule = never_decide();
  IisModel model(3, *rule);
  const StateId x0 = model.initial_states().front();
  const StateId y = model.apply_partition(x0, blocks({{1}, {0, 2}}));
  const ViewRef v1 = model.views().node(model.state(y).locals[1]);
  EXPECT_TRUE(v1.obs.empty());
}

TEST(Iis, SingletonRefinementIsSimilarityStep) {
  // Splitting a process solo-first off a block changes only that process's
  // view (the others in the block saw it anyway — immediate snapshot).
  auto rule = never_decide();
  IisModel model(3, *rule);
  for (StateId x0 : model.initial_states()) {
    const StateId coarse = model.apply_partition(x0, blocks({{0, 1, 2}}));
    const StateId fine = model.apply_partition(x0, blocks({{0}, {1, 2}}));
    EXPECT_TRUE(model.agree_modulo(coarse, fine, 0));
    EXPECT_TRUE(similar(model, coarse, fine));
  }
}

TEST(Iis, LayersAreSimilarityConnected) {
  auto rule = never_decide();
  IisModel model(3, *rule);
  const StateId x0 = model.initial_states().front();
  EXPECT_TRUE(similarity_connected(model, model.layer(x0)));
  const StateId x1 = model.layer(x0)[1];
  EXPECT_TRUE(similarity_connected(model, model.layer(x1)));
}

TEST(Iis, EveryProcessActsEveryLayer) {
  auto rule = never_decide();
  IisModel model(3, *rule);
  StateId x = model.initial_states().front();
  for (int d = 1; d <= 3; ++d) {
    x = model.layer(x).front();
    for (ViewId v : model.state(x).locals) {
      EXPECT_EQ(model.views().node(v).round, d);
    }
  }
  EXPECT_TRUE(model.failed_at(x).empty());
}

TEST(Iis, ImpossibilityMachineryRuns) {
  // The min rule violates agreement in IIS (a solo-first 1-holder decides 1
  // while a later process that saw the 0 decides 0), and the bivalent-run
  // construction extends — the wait-free impossibility in our terms.
  auto rule = min_after_round(2);
  IisModel model(3, *rule);
  const SpecReport report = check_consensus_spec(model, 3);
  EXPECT_TRUE(report.agreement.has_value());

  ValenceEngine engine(model, 3);
  const BivalentRunResult run = extend_bivalent_run(engine, 4);
  EXPECT_TRUE(run.complete) << run.stuck_reason;
}

TEST(Iis, UnanimousStatesDecideCorrectly) {
  auto rule = min_after_round(1);
  IisModel model(3, *rule);
  const StateId x0 = model.initial_states().front();  // all-zero inputs
  const StateId y = model.layer(x0).front();
  for (Value d : model.state(y).decisions) EXPECT_EQ(d, 0);
}

}  // namespace
}  // namespace lacon
