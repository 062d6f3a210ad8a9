// store_roundtrip — the lacon.store.v1 cold-vs-warm equivalence harness.
//
// Runs one canonical analysis (explore to depth, classify the frontier,
// s-diameter) and prints a canonical, id-free transcript on stdout:
// level sizes, sorted canonical state renderings, valence counts, diameter.
// Everything on stdout is deterministic across runs
// (raw ids never appear — DESIGN.md §9), so the CI lane can demand
// byte-identical output between:
//
//   store_roundtrip --save snap.store   cold: explore, analyze, snapshot
//   store_roundtrip --load snap.store   warm: load snapshot, re-analyze
//
// Counter evidence (stderr, not compared): after a warm start the arena
// miss counters stay at 0 — every state the analysis touches was replayed
// from the snapshot — while "arena.state_restored" carries the population.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/reports.hpp"
#include "engine/explore.hpp"
#include "engine/valence.hpp"
#include "relation/similarity.hpp"
#include "runtime/stats.hpp"
#include "store/snapshot.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s (--save PATH | --load PATH) [--model "
               "mobile|sharedmem|msgpass|sync] [--n N] [--t T] [--depth D] "
               "[--horizon H]\n",
               argv0);
  return 2;
}

// Canonical rendering of one state: environment term plus each process's
// view term and decision. Scheduling-independent by construction.
std::string render_state(lacon::LayeredModel& model, lacon::StateId x) {
  const lacon::StateRef s = model.state(x);
  std::string out = "env{" + model.env_to_string(x) + "}";
  for (int i = 0; i < model.n(); ++i) {
    const auto idx = static_cast<std::size_t>(i);
    out += " p" + std::to_string(i) + "=" +
           model.views().to_string(s.locals[idx]) + "/d" +
           std::to_string(s.decisions[idx]);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string save_path, load_path, model_name = "mobile";
  int n = 3, t = 1, depth = 2, horizon = 3;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](int* out) {
      if (i + 1 >= argc) return false;
      *out = std::atoi(argv[++i]);
      return true;
    };
    if (arg == "--save" && i + 1 < argc) {
      save_path = argv[++i];
    } else if (arg == "--load" && i + 1 < argc) {
      load_path = argv[++i];
    } else if (arg == "--model" && i + 1 < argc) {
      model_name = argv[++i];
    } else if (arg == "--n") {
      if (!next(&n)) return usage(argv[0]);
    } else if (arg == "--t") {
      if (!next(&t)) return usage(argv[0]);
    } else if (arg == "--depth") {
      if (!next(&depth)) return usage(argv[0]);
    } else if (arg == "--horizon") {
      if (!next(&horizon)) return usage(argv[0]);
    } else {
      return usage(argv[0]);
    }
  }
  if (save_path.empty() == load_path.empty()) return usage(argv[0]);

  lacon::ModelKind kind;
  if (model_name == "mobile") {
    kind = lacon::ModelKind::kMobile;
  } else if (model_name == "sharedmem") {
    kind = lacon::ModelKind::kSharedMem;
  } else if (model_name == "msgpass") {
    kind = lacon::ModelKind::kMsgPass;
  } else if (model_name == "sync") {
    kind = lacon::ModelKind::kSync;
  } else {
    return usage(argv[0]);
  }

  const auto rule =
      lacon::min_after_round(kind == lacon::ModelKind::kSync ? t + 1 : 2);
  const auto model = lacon::make_model(kind, n, t, *rule);
  lacon::ValenceEngine engine(*model, horizon,
                              lacon::default_exactness(kind));

  if (!load_path.empty()) {
    const lacon::store::Result r =
        lacon::store::load(*model, load_path, &engine);
    if (!r.ok()) {
      std::fprintf(stderr, "store_roundtrip: load failed (%s): %s\n",
                   lacon::store::to_string(r.status), r.detail.c_str());
      return 1;
    }
  }

  // The canonical analysis. After a warm start every intern below is a hit.
  const auto levels = lacon::reachable_by_depth(*model, depth);
  std::printf("model %s n=%d t=%d depth=%d horizon=%d\n",
              model->name().c_str(), n, t, depth, horizon);
  for (std::size_t d = 0; d < levels.size(); ++d) {
    std::printf("level %zu: %zu states\n", d, levels[d].size());
  }
  const std::vector<lacon::StateId>& frontier = levels.back();

  std::vector<std::string> rendered;
  rendered.reserve(frontier.size());
  for (lacon::StateId x : frontier) rendered.push_back(render_state(*model, x));
  std::sort(rendered.begin(), rendered.end());
  for (const std::string& s : rendered) std::printf("state %s\n", s.c_str());

  const auto infos = engine.classify_all(frontier);
  std::size_t bivalent = 0, uni0 = 0, uni1 = 0, exact = 0;
  for (const lacon::ValenceInfo& v : infos) {
    if (v.bivalent()) ++bivalent;
    if (v.univalent() && v.value() == 0) ++uni0;
    if (v.univalent() && v.value() == 1) ++uni1;
    if (v.exact) ++exact;
  }
  std::printf("valence bivalent=%zu uni0=%zu uni1=%zu exact=%zu\n", bivalent,
              uni0, uni1, exact);

  const auto diam = lacon::s_diameter(*model, frontier);
  if (diam.has_value()) {
    std::printf("s-diameter %zu\n", *diam);
  } else {
    std::printf("s-diameter disconnected\n");
  }

  auto& stats = lacon::runtime::Stats::global();
  std::fprintf(stderr,
               "counters: state_misses=%llu state_hits=%llu "
               "state_restored=%llu view_misses=%llu view_restored=%llu\n",
               static_cast<unsigned long long>(
                   stats.counter("arena.state_misses").value()),
               static_cast<unsigned long long>(
                   stats.counter("arena.state_hits").value()),
               static_cast<unsigned long long>(
                   stats.counter("arena.state_restored").value()),
               static_cast<unsigned long long>(
                   stats.counter("arena.view_misses").value()),
               static_cast<unsigned long long>(
                   stats.counter("arena.view_restored").value()));

  if (!load_path.empty() &&
      stats.counter("arena.state_misses").value() != 0) {
    std::fprintf(stderr,
                 "store_roundtrip: warm start interned new states — the "
                 "snapshot was incomplete\n");
    return 1;
  }

  if (!save_path.empty()) {
    const lacon::store::Result r =
        lacon::store::save(*model, save_path, &engine);
    if (!r.ok()) {
      std::fprintf(stderr, "store_roundtrip: save failed (%s): %s\n",
                   lacon::store::to_string(r.status), r.detail.c_str());
      return 1;
    }
    std::fprintf(stderr, "saved %s\n", save_path.c_str());
  }
  return 0;
}
