// Tests for the runtime support code (src/runtime/): the Stats registry
// and runtime_report, plus two analysis entry points that must match their
// plain definitions — Graph::from_relation on tiny sizes and classify_all
// against per-state valence calls.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "analysis/reports.hpp"
#include "engine/valence.hpp"
#include "relation/graph.hpp"
#include "runtime/stats.hpp"

namespace lacon {
namespace {

TEST(Stats, CountersAndTimersAccumulate) {
  auto& stats = runtime::Stats::global();
  auto& counter = stats.counter("test.counter");
  counter.reset();
  counter.add(3);
  counter.increment();
  EXPECT_EQ(counter.value(), 4u);

  auto& timer = stats.timer("test.timer");
  timer.reset();
  {
    runtime::ScopedTimer scope(timer);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(timer.count(), 1u);
  EXPECT_GT(timer.nanos(), 1000000u);  // at least 1ms elapsed

  bool saw_counter = false, saw_timer = false;
  for (const auto& s : stats.snapshot()) {
    if (s.name == "test.counter" && !s.is_timer && s.value == 4)
      saw_counter = true;
    if (s.name == "test.timer" && s.is_timer && s.count == 1) saw_timer = true;
  }
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_timer);
}

TEST(Stats, SnapshotIsSortedByName) {
  auto& stats = runtime::Stats::global();
  stats.counter("zz.last");
  stats.counter("aa.first");
  const auto snap = stats.snapshot();
  for (std::size_t i = 1; i < snap.size(); ++i) {
    EXPECT_LE(snap[i - 1].name, snap[i].name);
  }
}

TEST(RuntimeReport, MentionsWorkersAndStats) {
  runtime::Stats::global().counter("report.probe").increment();
  const std::string report = runtime_report();
  EXPECT_NE(report.find("trace.mode"), std::string::npos);
  EXPECT_NE(report.find("report.probe"), std::string::npos);
}

TEST(FromRelation, TinySizes) {
  const auto always = [](std::size_t, std::size_t) { return true; };
  EXPECT_EQ(Graph::from_relation(0, always).size(), 0u);
  EXPECT_EQ(Graph::from_relation(1, always).edge_count(), 0u);
  EXPECT_EQ(Graph::from_relation(2, always).edge_count(), 1u);
}

TEST(ClassifyAll, MatchesSerialValenceCalls) {
  auto rule = min_after_round(2);
  auto model = make_model(ModelKind::kMobile, 3, 1, *rule);
  const auto& con0 = model->initial_states();

  ValenceEngine serial_engine(*model, 3, Exactness::kQuiescence);
  std::vector<ValenceInfo> expected;
  for (StateId x : con0) expected.push_back(serial_engine.valence(x));

  auto rule2 = min_after_round(2);
  auto model2 = make_model(ModelKind::kMobile, 3, 1, *rule2);
  ValenceEngine engine(*model2, 3, Exactness::kQuiescence);
  const auto got = engine.classify_all(model2->initial_states());

  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].v0, expected[i].v0) << i;
    EXPECT_EQ(got[i].v1, expected[i].v1) << i;
    EXPECT_EQ(got[i].exact, expected[i].exact) << i;
  }
}

}  // namespace
}  // namespace lacon
