// T11 — lacon.store.v1 snapshot cold-start vs warm-start (store/snapshot.hpp).
//
// Two workloads: the t10 acceptance exploration (mobile n=8, one layer —
// interning-dominated, ~18k states / ~150k views) and a full small analysis
// (mobile n=4, depth 2, valence + s-diameter — memo- and cache-dominated).
// For each, BM_Cold pays the full exploration; BM_Warm loads a snapshot
// saved once per process and reruns the identical analysis, so the timing
// gap is exactly what the snapshot buys. BM_Load and BM_Save isolate the
// (de)serialization cost itself. The audit table shows the acceptance
// evidence: after a warm start the arena miss counters are 0 — the analysis
// re-interned nothing — while "arena.*_restored" carry the population.
//
// File IO makes the absolute numbers noisier than the in-memory benches;
// the committed baseline is gated accordingly in ci.sh (looser threshold
// than the t9/t10 hard gate).
#include <benchmark/benchmark.h>

#include "bench_flags.hpp"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <unistd.h>

#include "analysis/reports.hpp"
#include "engine/explore.hpp"
#include "engine/valence.hpp"
#include "relation/similarity.hpp"
#include "runtime/stats.hpp"
#include "store/snapshot.hpp"
#include "store/wal.hpp"
#include "util/table.hpp"

namespace lacon {
namespace {

struct Workload {
  const char* tag;
  int n;
  int depth;
  int horizon;
  bool analyze;  // classify the frontier and take its s-diameter
};

constexpr Workload kExplore{"mobile_n8_d1", 8, 1, 2, false};
constexpr Workload kAnalyze{"mobile_n4_d2", 4, 2, 3, true};

struct Instance {
  std::unique_ptr<DecisionRule> rule;
  std::unique_ptr<LayeredModel> model;
  std::unique_ptr<ValenceEngine> engine;
};

Instance make_instance(const Workload& w) {
  Instance inst;
  inst.rule = min_after_round(2);
  inst.model = make_model(ModelKind::kMobile, w.n, 1, *inst.rule);
  if (w.analyze) {
    inst.engine = std::make_unique<ValenceEngine>(
        *inst.model, w.horizon, default_exactness(ModelKind::kMobile));
  }
  return inst;
}

std::size_t run_analysis(Instance& inst, const Workload& w) {
  const auto levels = reachable_by_depth(*inst.model, w.depth);
  const std::vector<StateId>& frontier = levels.back();
  if (w.analyze) {
    benchmark::DoNotOptimize(inst.engine->classify_all(frontier).size());
    benchmark::DoNotOptimize(s_diameter(*inst.model, frontier).has_value());
  }
  return frontier.size();
}

// One snapshot per workload per process, saved lazily from a cold run.
const std::string& snapshot_file(const Workload& w) {
  static std::string dir = [] {
    const std::string d = (std::filesystem::temp_directory_path() /
                           ("lacon_t11_store_" + std::to_string(::getpid())))
                              .string();
    std::filesystem::create_directories(d);
    return d;
  }();
  static std::string paths[2];
  std::string& path = paths[w.analyze ? 1 : 0];
  if (path.empty()) {
    path = dir + "/" + w.tag + ".lacon.store";
    Instance inst = make_instance(w);
    run_analysis(inst, w);
    const store::Result r = store::save(*inst.model, path, inst.engine.get());
    if (!r.ok()) {
      std::fprintf(stderr, "bench_t11_store: save failed: %s\n",
                   r.detail.c_str());
      std::exit(1);
    }
  }
  return path;
}

void cleanup_snapshots() {
  std::error_code ec;
  std::filesystem::remove_all(std::filesystem::temp_directory_path() /
                                  ("lacon_t11_store_" +
                                   std::to_string(::getpid())),
                              ec);
}

void BM_Cold(benchmark::State& state, const Workload& w) {
  std::size_t frontier = 0;
  for (auto _ : state) {
    Instance inst = make_instance(w);
    frontier = run_analysis(inst, w);
  }
  state.counters["frontier"] = static_cast<double>(frontier);
}

void BM_Warm(benchmark::State& state, const Workload& w) {
  const std::string& path = snapshot_file(w);
  auto& misses = runtime::Stats::global().counter("arena.state_misses");
  std::uint64_t new_misses = 0;
  for (auto _ : state) {
    Instance inst = make_instance(w);
    const std::uint64_t before = misses.value();
    const store::Result r = store::load(*inst.model, path, inst.engine.get());
    if (!r.ok()) state.SkipWithError(r.detail.c_str());
    benchmark::DoNotOptimize(run_analysis(inst, w));
    new_misses += misses.value() - before;
  }
  // The acceptance criterion: a warm start re-interns nothing.
  state.counters["warm_state_misses"] = static_cast<double>(new_misses);
}

void BM_Load(benchmark::State& state, const Workload& w) {
  const std::string& path = snapshot_file(w);
  for (auto _ : state) {
    Instance inst = make_instance(w);
    const store::Result r = store::load(*inst.model, path, inst.engine.get());
    if (!r.ok()) state.SkipWithError(r.detail.c_str());
    benchmark::DoNotOptimize(inst.model->num_states());
  }
  state.counters["file_bytes"] =
      static_cast<double>(std::filesystem::file_size(path));
}

void BM_Save(benchmark::State& state, const Workload& w) {
  Instance inst = make_instance(w);
  run_analysis(inst, w);
  const std::string scratch = snapshot_file(w) + ".scratch";
  for (auto _ : state) {
    const store::Result r = store::save(*inst.model, scratch,
                                        inst.engine.get());
    if (!r.ok()) state.SkipWithError(r.detail.c_str());
  }
}

// One WAL commit of the entire workload delta (record encode + write +
// fsync): a cold session's first commit under LACON_WAL=on, the largest
// record a request writes (steady-state records are far smaller). Each
// iteration's reset_to(0, 0, ...) declares that nothing is on disk, which
// queues every cache entry again, so the same content re-appends as a
// fresh record.
void BM_WalAppend(benchmark::State& state, const Workload& w) {
  Instance inst = make_instance(w);
  run_analysis(inst, w);
  const std::string path = snapshot_file(w) + ".append.wal";
  store::Wal wal;
  store::Result r = wal.open(*inst.model, path);
  if (!r.ok()) state.SkipWithError(r.detail.c_str());
  for (auto _ : state) {
    r = wal.reset_to(*inst.model, 0, 0, inst.engine.get());
    if (!r.ok()) state.SkipWithError(r.detail.c_str());
    r = wal.append(*inst.model, {inst.engine.get()});
    if (!r.ok()) state.SkipWithError(r.detail.c_str());
  }
  state.counters["record_bytes"] = static_cast<double>(wal.log_bytes());
}

// Group commit vs serialized fsync: the same four-client commit round —
// one full delta record plus one memo-carrying record per additional
// engine horizon — lands in the log either as ONE coalesced write+fsync
// (the batch append laconrd performs for a pipelined batch that touched
// four horizons) or as four sequential fsync'd appends (the old
// per-request discipline). The
// acceptance criterion is that the group row costs no more per round than
// the serial row — in practice it approaches a quarter, since the fsync
// dominates and the group pays it once.
constexpr int kCommitClients = 4;

struct CommitFixture {
  Instance inst;
  std::vector<std::unique_ptr<ValenceEngine>> extra;
  std::vector<ValenceEngine*> engines;  // kCommitClients distinct horizons
};

CommitFixture make_commit_fixture(const Workload& w) {
  CommitFixture f;
  f.inst = make_instance(w);
  const auto levels = reachable_by_depth(*f.inst.model, w.depth);
  const std::vector<StateId>& frontier = levels.back();
  f.inst.engine->classify_all(frontier);
  f.engines.push_back(f.inst.engine.get());
  for (int i = 1; i < kCommitClients; ++i) {
    auto eng = std::make_unique<ValenceEngine>(
        *f.inst.model, w.horizon + i, default_exactness(ModelKind::kMobile));
    eng->classify_all(frontier);
    f.engines.push_back(eng.get());
    f.extra.push_back(std::move(eng));
  }
  return f;
}

void BM_WalGroupCommit(benchmark::State& state, const Workload& w) {
  CommitFixture f = make_commit_fixture(w);
  const std::string path = snapshot_file(w) + ".group.wal";
  store::Wal wal;
  store::Result r = wal.open(*f.inst.model, path);
  if (!r.ok()) state.SkipWithError(r.detail.c_str());
  for (auto _ : state) {
    r = wal.reset_to(*f.inst.model, 0, 0, nullptr);
    if (!r.ok()) state.SkipWithError(r.detail.c_str());
    r = wal.append(*f.inst.model, f.engines);
    if (!r.ok()) state.SkipWithError(r.detail.c_str());
  }
  state.counters["fsyncs_per_round"] = 1.0;
  state.counters["round_bytes"] = static_cast<double>(wal.log_bytes());
}

void BM_WalSerialCommit(benchmark::State& state, const Workload& w) {
  CommitFixture f = make_commit_fixture(w);
  const std::string path = snapshot_file(w) + ".serial.wal";
  store::Wal wal;
  store::Result r = wal.open(*f.inst.model, path);
  if (!r.ok()) state.SkipWithError(r.detail.c_str());
  for (auto _ : state) {
    r = wal.reset_to(*f.inst.model, 0, 0, nullptr);
    if (!r.ok()) state.SkipWithError(r.detail.c_str());
    for (ValenceEngine* eng : f.engines) {
      r = wal.append(*f.inst.model, {eng});
      if (!r.ok()) state.SkipWithError(r.detail.c_str());
    }
  }
  state.counters["fsyncs_per_round"] = static_cast<double>(kCommitClients);
  state.counters["round_bytes"] = static_cast<double>(wal.log_bytes());
}

// A commit that finds nothing new, as after every warm read under
// LACON_WAL=on: one pass over the empty queues, no write, no fsync. The
// session is durable_mix's p50 class (mobile n=4, depth 3, horizon 4),
// analyzed and committed once before the loop.
void BM_WalNoopCommit(benchmark::State& state) {
  const Workload w{"mobile_n4_d3", 4, 3, 4, true};
  auto rule = min_after_round(2);
  auto model = make_model(ModelKind::kMobile, w.n, 1, *rule);
  ValenceEngine engine(*model, w.horizon,
                       default_exactness(ModelKind::kMobile));
  const std::string path = snapshot_file(kAnalyze) + ".noop.wal";
  store::Wal wal;
  store::Result r = wal.open(*model, path);
  if (r.ok()) r = wal.replay(*model, &engine);
  if (!r.ok()) state.SkipWithError(r.detail.c_str());
  const auto levels = reachable_by_depth(*model, w.depth);
  engine.classify_all(levels.back());
  r = wal.append(*model, {&engine});
  if (!r.ok()) state.SkipWithError(r.detail.c_str());
  const std::uint64_t records = wal.records_appended();
  for (auto _ : state) {
    r = wal.append(*model, {&engine});
    if (!r.ok()) state.SkipWithError(r.detail.c_str());
  }
  if (wal.records_appended() != records) {
    state.SkipWithError("a no-op commit appended a record");
  }
  state.counters["states"] = static_cast<double>(model->num_states());
}

// Crash recovery itself: replaying that record into an empty model —
// BM_Load's sibling for the log path.
void BM_WalReplay(benchmark::State& state, const Workload& w) {
  const std::string path = snapshot_file(w) + ".replay.wal";
  {
    Instance inst = make_instance(w);
    store::Wal wal;
    store::Result r = wal.open(*inst.model, path);
    if (!r.ok()) state.SkipWithError(r.detail.c_str());
    wal.replay(*inst.model, inst.engine.get());
    run_analysis(inst, w);
    r = wal.append(*inst.model, {inst.engine.get()});
    if (!r.ok()) state.SkipWithError(r.detail.c_str());
  }
  std::uint64_t states = 0;
  for (auto _ : state) {
    Instance inst = make_instance(w);
    store::Wal wal;
    store::Result r = wal.open(*inst.model, path);
    if (!r.ok()) state.SkipWithError(r.detail.c_str());
    store::WalReplayStats rs;
    r = wal.replay(*inst.model, inst.engine.get(), &rs);
    if (!r.ok()) state.SkipWithError(r.detail.c_str());
    states = rs.states_applied;
  }
  state.counters["states_replayed"] = static_cast<double>(states);
}

// Cold-vs-warm audit: one measured run each, with the counter evidence that
// the warm analysis hit the restored index instead of re-interning.
void print_table() {
  auto& stats = runtime::Stats::global();
  Table table({"workload", "cold ms", "warm ms", "file KiB", "restored",
               "warm misses"});
  for (const Workload& w : {kExplore, kAnalyze}) {
    const std::string& path = snapshot_file(w);  // also the cold run
    using clock = std::chrono::steady_clock;

    const auto cold_start = clock::now();
    {
      Instance inst = make_instance(w);
      run_analysis(inst, w);
    }
    const double cold_ms =
        std::chrono::duration<double, std::milli>(clock::now() - cold_start)
            .count();

    stats.counter("arena.state_restored").reset();
    stats.counter("arena.view_restored").reset();
    stats.counter("arena.state_misses").reset();
    stats.counter("arena.view_misses").reset();
    const auto warm_start = clock::now();
    {
      Instance inst = make_instance(w);
      store::load(*inst.model, path, inst.engine.get());
      run_analysis(inst, w);
    }
    const double warm_ms =
        std::chrono::duration<double, std::milli>(clock::now() - warm_start)
            .count();

    const std::uint64_t restored =
        stats.counter("arena.state_restored").value() +
        stats.counter("arena.view_restored").value();
    const std::uint64_t warm_misses =
        stats.counter("arena.state_misses").value() +
        stats.counter("arena.view_misses").value();
    char cold_buf[32], warm_buf[32];
    std::snprintf(cold_buf, sizeof cold_buf, "%.1f", cold_ms);
    std::snprintf(warm_buf, sizeof warm_buf, "%.1f", warm_ms);
    table.add_row({w.tag, cold_buf, warm_buf,
                   std::to_string(std::filesystem::file_size(path) / 1024),
                   std::to_string(restored), std::to_string(warm_misses)});
  }
  std::fputs(
      table.to_string("T11: lacon.store.v1 snapshot cold vs warm start")
          .c_str(),
      stdout);
}

void register_workloads(const char* name,
                        void (*fn)(benchmark::State&, const Workload&)) {
  for (const Workload& w : {kExplore, kAnalyze}) {
    benchmark::RegisterBenchmark(
        (std::string(name) + "/" + w.tag).c_str(),
        [fn, w](benchmark::State& s) { fn(s, w); })
        ->Unit(benchmark::kMillisecond);
  }
}

}  // namespace
}  // namespace lacon

int main(int argc, char** argv) {
  lacon::benchflags::init(&argc, argv);
  lacon::print_table();
  lacon::register_workloads("BM_Cold", lacon::BM_Cold);
  lacon::register_workloads("BM_Warm", lacon::BM_Warm);
  lacon::register_workloads("BM_Load", lacon::BM_Load);
  lacon::register_workloads("BM_Save", lacon::BM_Save);
  lacon::register_workloads("BM_WalAppend", lacon::BM_WalAppend);
  // The commit benches need an engine per horizon: analyze-workload only.
  benchmark::RegisterBenchmark(
      (std::string("BM_WalGroupCommit/") + lacon::kAnalyze.tag).c_str(),
      [](benchmark::State& s) { lacon::BM_WalGroupCommit(s, lacon::kAnalyze); })
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark(
      (std::string("BM_WalSerialCommit/") + lacon::kAnalyze.tag).c_str(),
      [](benchmark::State& s) { lacon::BM_WalSerialCommit(s, lacon::kAnalyze); })
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("BM_WalNoopCommit/mobile_n4_d3",
                               lacon::BM_WalNoopCommit)
      ->Unit(benchmark::kMillisecond);
  lacon::register_workloads("BM_WalReplay", lacon::BM_WalReplay);
  lacon::benchflags::add_json_context();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  lacon::benchflags::finish();
  lacon::cleanup_snapshots();
  return 0;
}
