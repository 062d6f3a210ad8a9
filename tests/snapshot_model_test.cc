// Tests for the immediate-snapshot shared-memory model: snapshot atomicity,
// register persistence, IS-style similarity structure, and the
// impossibility machinery.
#include <gtest/gtest.h>

#include "core/decision_rule.hpp"
#include "engine/bivalence.hpp"
#include "engine/spec.hpp"
#include "models/snapshot/snapshot_model.hpp"
#include "relation/similarity.hpp"

namespace lacon {
namespace {

OrderedPartition blocks(
    std::initializer_list<std::initializer_list<ProcessId>> bs) {
  OrderedPartition p;
  for (const auto& b : bs) {
    ProcessSet set;
    for (ProcessId i : b) set.insert(i);
    p.push_back(set);
  }
  return p;
}

TEST(Snapshot, PartitionEnumerationOverSubsets) {
  EXPECT_EQ(ordered_partitions_of(ProcessSet::all(3)).size(), 13u);
  ProcessSet two = ProcessSet::all(3);
  two.erase(1);
  EXPECT_EQ(ordered_partitions_of(two).size(), 3u);
}

TEST(Snapshot, LayerSizeCombinesFullAndDropOne) {
  auto rule = never_decide();
  SnapshotModel model(3, *rule);
  const StateId x0 = model.initial_states().front();
  // 13 full partitions + 3 * 3 drop-one partitions = 22 actions, with some
  // state coincidences possible.
  EXPECT_LE(model.layer(x0).size(), 22u);
  EXPECT_GT(model.layer(x0).size(), 10u);
}

TEST(Snapshot, BlockMembersSeeEachOtherAndPersistentValues) {
  auto rule = never_decide();
  SnapshotModel model(3, *rule);
  const StateId x0 = model.initial_states().front();
  // Round 1: only {0,2} participate (1 slow), 0 and 2 in one block.
  const StateId y = model.apply_partition(x0, blocks({{0, 2}}));
  const ViewRef v0 = model.views().node(model.state(y).locals[0]);
  // Snapshot covers all registers: 0's own, 1's (never written: kNoView),
  // and 2's fresh write.
  ASSERT_EQ(v0.obs.size(), 3u);
  EXPECT_EQ(v0.obs[1].source, 1);
  EXPECT_EQ(v0.obs[1].view, kNoView);
  EXPECT_EQ(v0.obs[2].view, model.state(x0).locals[2]);
  // 1 did not act.
  EXPECT_EQ(model.state(y).locals[1], model.state(x0).locals[1]);
}

TEST(Snapshot, RegistersPersistAcrossRounds) {
  auto rule = never_decide();
  SnapshotModel model(3, *rule);
  const StateId x0 = model.initial_states().front();
  // Round 1: everyone writes. Round 2: 1 is slow; 0 still sees 1's round-1
  // register value (the stale-value bridge).
  const StateId y = model.apply_partition(x0, blocks({{0, 1, 2}}));
  const StateId z = model.apply_partition(y, blocks({{0, 2}}));
  const ViewRef v0 = model.views().node(model.state(z).locals[0]);
  EXPECT_EQ(v0.obs[1].source, 1);
  EXPECT_EQ(v0.obs[1].view, model.state(x0).locals[1]);  // round-1 write
}

TEST(Snapshot, SingletonRefinementIsSimilarityStep) {
  auto rule = never_decide();
  SnapshotModel model(3, *rule);
  for (StateId x0 : model.initial_states()) {
    const StateId coarse = model.apply_partition(x0, blocks({{0, 1, 2}}));
    const StateId fine = model.apply_partition(x0, blocks({{0}, {1, 2}}));
    EXPECT_TRUE(model.agree_modulo(coarse, fine, 0));
    EXPECT_TRUE(similar(model, coarse, fine));
  }
}

TEST(Snapshot, FullPartitionsAreSimilarityConnectedSubset) {
  auto rule = never_decide();
  SnapshotModel model(3, *rule);
  const StateId x0 = model.initial_states().front();
  std::vector<StateId> full;
  for (const OrderedPartition& p :
       ordered_partitions_of(ProcessSet::all(3))) {
    full.push_back(model.apply_partition(x0, p));
  }
  std::sort(full.begin(), full.end());
  full.erase(std::unique(full.begin(), full.end()), full.end());
  EXPECT_TRUE(similarity_connected(model, full));
}

TEST(Snapshot, ImpossibilityMachineryRuns) {
  auto rule = min_after_round(2);
  SnapshotModel model(3, *rule);
  const TrilemmaVerdict v = consensus_trilemma(model, 3, 3);
  EXPECT_NE(v.violated, TrilemmaVerdict::Violated::kNone);

  SnapshotModel model2(3, *rule);
  ValenceEngine engine(model2, 3, Exactness::kConvergence);
  const BivalentRunResult run = extend_bivalent_run(engine, 3);
  EXPECT_TRUE(run.complete) << run.stuck_reason;
}

TEST(Snapshot, NoFiniteFailure) {
  auto rule = never_decide();
  SnapshotModel model(3, *rule);
  const StateId x0 = model.initial_states().front();
  for (StateId y : model.layer(x0)) {
    EXPECT_TRUE(model.failed_at(y).empty());
  }
}

}  // namespace
}  // namespace lacon
