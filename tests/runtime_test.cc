// Tests for the runtime support code (src/runtime/): the Stats registry
// and runtime_report, plus two analysis entry points that must match their
// plain definitions — Graph::from_relation on tiny sizes and classify_all
// against per-state valence calls, alone and from concurrent callers.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "analysis/reports.hpp"
#include "engine/explore.hpp"
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
  auto& stats = runtime::Stats::global();
  stats.counter("report.probe").increment();
  stats.timer("report.probe_time").record(std::chrono::milliseconds(2));
  const std::string report = runtime_report();
  EXPECT_NE(report.find("report.probe "), std::string::npos);
  const std::size_t row = report.find("report.probe_time");
  ASSERT_NE(row, std::string::npos);
  const std::string line = report.substr(row, report.find('\n', row) - row);
  EXPECT_NE(line.find("timer"), std::string::npos) << line;
  EXPECT_NE(line.find(" ms"), std::string::npos) << line;
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


TEST(ClassifyAll, ConcurrentCallersMatchSerial) {
  // Four threads classify overlapping windows of one frontier through one
  // engine, so their lock-free memo merges and layer publishes race. Each
  // result must equal a serial engine's on a fresh model. Results are
  // compared, not exports: a bivalent word's lookahead depends on the order
  // in which paths reached it.
  constexpr int kDepth = 2, kHorizon = 3;
  constexpr std::size_t kThreads = 4;
  auto serial_rule = min_after_round(2);
  auto serial_model = make_model(ModelKind::kMsgPass, 3, 1, *serial_rule);
  const std::vector<StateId> serial_frontier =
      reachable_by_depth(*serial_model, kDepth).back();
  ValenceEngine serial(*serial_model, kHorizon, Exactness::kConvergence);
  const std::vector<ValenceInfo> expected =
      serial.classify_all(serial_frontier);

  auto rule = min_after_round(2);
  auto model = make_model(ModelKind::kMsgPass, 3, 1, *rule);
  const std::vector<StateId> frontier =
      reachable_by_depth(*model, kDepth).back();
  ASSERT_EQ(frontier.size(), expected.size());
  ValenceEngine shared(*model, kHorizon, Exactness::kConvergence);

  // Thread k takes eighths [k, k + 4) of the frontier (the last thread runs
  // to its end), so neighbouring windows overlap by three eighths.
  const std::size_t eighth = frontier.size() / 8;
  std::vector<std::size_t> begin(kThreads), end(kThreads);
  std::vector<std::vector<ValenceInfo>> got(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t k = 0; k < kThreads; ++k) {
    begin[k] = k * eighth;
    end[k] = k + 1 == kThreads ? frontier.size() : (k + 4) * eighth;
    threads.emplace_back([&, k] {
      got[k] = shared.classify_all(
          {frontier.begin() + static_cast<std::ptrdiff_t>(begin[k]),
           frontier.begin() + static_cast<std::ptrdiff_t>(end[k])});
    });
  }
  for (std::thread& t : threads) t.join();

  for (std::size_t k = 0; k < kThreads; ++k) {
    ASSERT_EQ(got[k].size(), end[k] - begin[k]) << "thread " << k;
    for (std::size_t i = 0; i < got[k].size(); ++i) {
      const ValenceInfo& want = expected[begin[k] + i];
      EXPECT_EQ(got[k][i].v0, want.v0) << "thread " << k << " state " << i;
      EXPECT_EQ(got[k][i].v1, want.v1) << "thread " << k << " state " << i;
      EXPECT_EQ(got[k][i].exact, want.exact)
          << "thread " << k << " state " << i;
    }
  }
}

}  // namespace
}  // namespace lacon
