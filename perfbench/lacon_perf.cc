// lacon_perf — the benchmark's in-process runner (perfbench/README.md).
//
//   lacon_perf verdicts N T DEPTH HORIZON SPANS OUT.json [--setup-only]
//   lacon_perf replay SCRIPT.json SPANS OUT.json
//
// `verdicts` runs lacon_check's suite (examples/lacon_check.cpp) through the
// public check_*, consensus_trilemma and problem_k_thick_connected calls, in
// lacon_check's order, one span per verdict row. With --setup-only it prints
// the CLOCK_MONOTONIC time at which the first row would begin, and exits.
//
// `replay` executes a workload script the way laconrd's connection threads
// do (service/server.cc + handle_batch in service/protocol.cc): one thread
// per connection, each batch executed in order, every touched session
// group-committed once, responses serialized. Every public call on that path
// is wrapped in a span.
//
// With SPANS=1 every span records its start/end wall and process-CPU time and
// the runtime::Stats counters at both boundaries; spans are kept in memory
// and written to OUT.json at exit. With SPANS=0 the same calls run without
// any recording. Answers are written either way.
#include <time.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/reports.hpp"
#include "core/decision_rule.hpp"
#include "engine/explore.hpp"
#include "engine/lemmas.hpp"
#include "engine/spec.hpp"
#include "engine/valence.hpp"
#include "relation/similarity.hpp"
#include "runtime/guard.hpp"
#include "runtime/stats.hpp"
#include "service/json.hpp"
#include "service/protocol.hpp"
#include "topology/solvability.hpp"
#include "topology/tasks.hpp"

namespace {

using lacon::service::Json;

std::int64_t now_ns(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return std::int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
}

// The counters read at every span boundary. Timers contribute their
// accumulated nanoseconds.
const char* const kCounters[] = {
    "arena.state_hits",        "arena.state_misses",
    "arena.state_shard_waits", "arena.view_shard_waits",
    "arena.state_mapped",      "arena.state_restored",
    "lemmas.hits",             "lemmas.misses",
    "relation.index_candidates", "relation.index_confirmed",
    "pool.steals",             "service.commit_waits",
    "wal.group_commits",       "wal.bytes_appended",
    "wal.compactions",         "valence.states_classified",
};
const char* const kTimers[] = {
    "wal.append_time",       "store.load_time",     "wal.replay_time",
    "explore.expand_time",   "valence.classify_time",
    "relation.pair_sweep_time", "relation.index_time",
    "relation.diameter_time",
};
constexpr std::size_t kNumCounters = std::size(kCounters);
constexpr std::size_t kNumProbes = kNumCounters + std::size(kTimers);

struct Probes {
  std::vector<lacon::runtime::Counter*> counters;
  std::vector<lacon::runtime::Timer*> timers;
  Probes() {
    auto& stats = lacon::runtime::Stats::global();
    for (const char* name : kCounters) counters.push_back(&stats.counter(name));
    for (const char* name : kTimers) timers.push_back(&stats.timer(name));
  }
  void read(std::uint64_t* out) const {
    for (std::size_t i = 0; i < counters.size(); ++i) {
      out[i] = counters[i]->value();
    }
    for (std::size_t i = 0; i < timers.size(); ++i) {
      out[kNumCounters + i] = timers[i]->nanos();
    }
  }
};

struct Span {
  std::string name;
  std::int64_t req = -1;     // request or verdict-row id
  int parent = -1;           // index into the same thread's span list
  std::int64_t t0 = 0, t1 = 0, cpu0 = 0, cpu1 = 0;
  std::uint64_t c0[kNumProbes] = {}, c1[kNumProbes] = {};
  std::int64_t extra = -1;   // span-specific count (valence: evaluations)
};

// Per-thread span recorder. Disabled recorders cost one branch per call.
class Tracer {
 public:
  Tracer(bool on, const Probes* probes) : on_(on), probes_(probes) {}

  // RAII span; `extra` may be set before it closes.
  class Scope {
   public:
    Scope(Tracer& t, const char* name, std::int64_t req) : t_(t) {
      if (!t_.on_) return;
      idx_ = static_cast<int>(t_.spans_.size());
      Span& s = t_.spans_.emplace_back();
      s.name = name;
      s.req = req;
      s.parent = t_.stack_.empty() ? -1 : t_.stack_.back();
      t_.stack_.push_back(idx_);
      t_.probes_->read(s.c0);
      s.cpu0 = now_ns(CLOCK_PROCESS_CPUTIME_ID);
      s.t0 = now_ns(CLOCK_MONOTONIC);
    }
    ~Scope() {
      if (idx_ < 0) return;
      Span& s = t_.spans_[static_cast<std::size_t>(idx_)];
      s.t1 = now_ns(CLOCK_MONOTONIC);
      s.cpu1 = now_ns(CLOCK_PROCESS_CPUTIME_ID);
      t_.probes_->read(s.c1);
      t_.stack_.pop_back();
    }
    void set_extra(std::int64_t v) {
      if (idx_ >= 0) t_.spans_[static_cast<std::size_t>(idx_)].extra = v;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    int idx_ = -1;
  };

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool on_;
  const Probes* probes_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

void write_spans(std::ostream& out, const std::vector<const Tracer*>& tracers) {
  out << "\"probe_names\":[";
  for (std::size_t i = 0; i < kNumProbes; ++i) {
    out << (i ? "," : "") << '"'
        << (i < kNumCounters ? kCounters[i] : kTimers[i - kNumCounters])
        << '"';
  }
  out << "],\"spans\":[";
  bool first = true;
  for (std::size_t thread = 0; thread < tracers.size(); ++thread) {
    for (const Span& s : tracers[thread]->spans()) {
      out << (first ? "" : ",\n") << "{\"name\":\"" << s.name
          << "\",\"thread\":" << thread << ",\"req\":" << s.req
          << ",\"parent\":" << s.parent << ",\"t0\":" << s.t0
          << ",\"t1\":" << s.t1 << ",\"cpu\":" << (s.cpu1 - s.cpu0)
          << ",\"extra\":" << s.extra << ",\"d\":[";
      for (std::size_t i = 0; i < kNumProbes; ++i) {
        out << (i ? "," : "") << (s.c1[i] - s.c0[i]);
      }
      out << "]}";
      first = false;
    }
  }
  out << "]";
}

double vm_hwm_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

std::string quote(const std::string& s) { return Json(s).dump(); }

// ---------------------------------------------------------------- verdicts

struct Row {
  std::string model, check;
  bool ok = false;
  std::uint64_t checked = 0;
  std::string detail;
  std::int64_t wall_ns = 0;
};

int run_verdicts(int n, int t, int depth, int horizon, bool spans,
                 const char* out_path, bool setup_only) {
  using namespace lacon;
  const Probes probes;
  Tracer tracer(spans, &probes);
  std::vector<Row> rows;
  const std::int64_t first_row = now_ns(CLOCK_MONOTONIC);
  if (setup_only) {
    std::printf("%lld\n", static_cast<long long>(first_row));
    return 0;
  }
  const std::int64_t cpu0 = now_ns(CLOCK_PROCESS_CPUTIME_ID);

  // One verdict row: a span around `check`, whose result becomes the row.
  auto row = [&](const std::string& model, const char* check,
                 const std::function<CheckResult()>& fn) {
    const std::string name = "analysis." + model + "." + check;
    CheckResult r;
    const std::int64_t t0 = now_ns(CLOCK_MONOTONIC);
    {
      Tracer::Scope span(tracer, name.c_str(),
                         static_cast<std::int64_t>(rows.size()));
      r = fn();
    }
    rows.push_back({model, check, r.ok, r.checked, r.detail,
                    now_ns(CLOCK_MONOTONIC) - t0});
  };
  // Arena sizes of every model the suite built, summed at the end of its
  // model's rows.
  std::uint64_t states = 0, views = 0;
  auto count = [&](LayeredModel& m) {
    states += m.num_states();
    views += m.num_views();
  };

  // lacon_check's order: per model, run_lemma_suite's rows, then the
  // trilemma; then the two topology verdicts.
  for (ModelKind kind : {ModelKind::kMobile, ModelKind::kSharedMem,
                         ModelKind::kMsgPass, ModelKind::kSync}) {
    const bool sync = kind == ModelKind::kSync;
    const char* name = kind == ModelKind::kMobile      ? "mobile"
                       : kind == ModelKind::kSharedMem ? "sharedmem"
                       : kind == ModelKind::kMsgPass   ? "msgpass"
                                                       : "sync";
    const int h = sync ? t + 2 : horizon;
    const Exactness mode = default_exactness(kind);
    auto rule = min_after_round(sync ? t + 1 : 2);
    auto model = make_model(kind, n, t, *rule);
    if (sync) {
      row(name, "lemma_3_1",
          [&] { return check_lemma_3_1(*model, t, depth, h, mode); });
    } else {
      const auto safe_rule = min_when_all_known(1);
      auto safe_model = make_model(kind, n, t, *safe_rule);
      row(name, "lemma_3_1",
          [&] { return check_lemma_3_1(*safe_model, 1, depth, h, mode); });
      row(name, "lemma_3_2",
          [&] { return check_lemma_3_2(*safe_model, depth, h, mode); });
      row(name, "lemma_3_2_contra", [&] {
        return check_lemma_3_2_contrapositive(*model, depth, h, mode);
      });
      count(*safe_model);
    }
    row(name, "lemma_3_3",
        [&] { return check_lemma_3_3(*model, depth, h, mode); });
    row(name, "lemma_3_6", [&] { return check_lemma_3_6(*model, h, mode); });
    std::function<bool(StateId)> filter;
    if (sync) {
      LayeredModel* raw = model.get();
      filter = [raw, t](StateId x) { return raw->failed_at(x).size() < t - 1; };
    }
    row(name, "layer_connectivity", [&] {
      return check_layer_connectivity(*model, depth, h,
                                      layers_similarity_connected(kind), mode,
                                      filter);
    });
    if (sync) {
      row(name, "lemma_6_1",
          [&] { return check_lemma_6_1(*model, t, h, mode); });
      row(name, "lemma_6_2",
          [&] { return check_lemma_6_2(*model, depth, h, mode); });
    }
    row(name, "trilemma", [&] {
      auto trilemma_model = make_model(kind, n, t, *rule);
      const TrilemmaVerdict v =
          consensus_trilemma(*trilemma_model, depth + 1, h);
      count(*trilemma_model);
      CheckResult r;
      r.ok = sync ? v.violated == TrilemmaVerdict::Violated::kNone
                  : v.violated != TrilemmaVerdict::Violated::kNone;
      r.checked = 1;
      r.detail = v.witness;
      return r;
    });
    count(*model);
  }
  row("topology", "consensus", [&] {
    const ThickResult tr = problem_k_thick_connected(consensus_task(n), 1);
    return CheckResult{tr.verdict == ThickVerdict::kNotConnected, tr.detail,
                       tr.subproblems_tried};
  });
  row("topology", "trivial", [&] {
    const ThickResult tr = problem_k_thick_connected(trivial_task(n), 1);
    return CheckResult{tr.verdict == ThickVerdict::kConnected, tr.detail,
                       tr.subproblems_tried};
  });
  const std::int64_t end = now_ns(CLOCK_MONOTONIC);
  const std::int64_t cpu = now_ns(CLOCK_PROCESS_CPUTIME_ID) - cpu0;

  std::ofstream out(out_path);
  out << "{\"first_row_ns\":" << first_row << ",\"suite_ns\":"
      << (end - first_row) << ",\"cpu_ns\":" << cpu
      << ",\"rss_mb\":" << vm_hwm_mb() << ",\"states\":" << states
      << ",\"views\":" << views << ",\"rows\":[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out << (i ? ",\n" : "") << "{\"model\":" << quote(r.model)
        << ",\"check\":" << quote(r.check)
        << ",\"ok\":" << (r.ok ? "true" : "false")
        << ",\"checked\":" << r.checked << ",\"wall_ns\":" << r.wall_ns
        << ",\"detail\":" << quote(r.detail) << "}";
  }
  out << "],";
  write_spans(out, {&tracer});
  out << "}\n";
  return out ? 0 : 1;
}

// ------------------------------------------------------------------ replay

struct Answer {
  std::int64_t req = 0;
  std::string status, result;
  double new_states = 0;
};

struct Executed {
  Json response;
  lacon::service::Session* session = nullptr;
  lacon::ValenceEngine* engine = nullptr;
};

// service/protocol.cc's execute_request, one span per public call. Sessions
// here run with LACON_SYMMETRY=off, where orbit weights are 1 and frontiers
// need no unfolding, so sizes are plain counts.
Executed execute(lacon::service::SessionManager& sessions,
                 const lacon::service::Request& req, Tracer& tr,
                 std::int64_t id) {
  using namespace lacon;
  service::Session* session;
  ValenceEngine* engine;
  {
    Tracer::Scope span(tr, "service.session", id);
    session = &sessions.session(req.kind, req.n, req.t);
    engine = &session->engine(req.horizon);
  }
  {
    Tracer::Scope span(tr, "store.ensure_loaded", id);
    session->ensure_store_loaded(engine);
  }
  LayeredModel& model = session->model();
  const std::size_t states_before = model.num_states();
  const std::size_t views_before = model.num_views();
  const std::int64_t start = now_ns(CLOCK_MONOTONIC);
  guard::Guard g;
  Json result;
  bool truncated = false;
  std::vector<StateId> frontier;
  {
    Tracer::Scope span(tr, "engine.explore", id);
    auto levels = reachable_by_depth(model, req.depth, g);
    truncated = levels.truncation != guard::TruncationReason::kNone;
    if (!levels.value.empty()) frontier = levels.value.back();
    if (req.query == "layers") {
      Json sizes{Json::Array{}};
      std::uint64_t total = 0;
      for (const auto& level : levels.value) {
        sizes.array().push_back(Json(level.size()));
        total += level.size();
      }
      result.set("depth_completed", Json(levels.completed));
      result.set("level_sizes", std::move(sizes));
      result.set("total_states", Json(total));
    }
  }
  if (req.query == "valence") {
    Tracer::Scope span(tr, "engine.valence", id);
    const std::size_t evals = engine->evaluations();
    auto infos = engine->classify_all(frontier, g);
    span.set_extra(static_cast<std::int64_t>(engine->evaluations() - evals));
    truncated = truncated || infos.truncation != guard::TruncationReason::kNone;
    std::uint64_t bivalent = 0, uni0 = 0, uni1 = 0, exact = 0;
    for (const ValenceInfo& v : infos.value) {
      if (v.bivalent()) ++bivalent;
      if (v.univalent() && v.value() == 0) ++uni0;
      if (v.univalent() && v.value() == 1) ++uni1;
      if (v.exact) ++exact;
    }
    result.set("frontier", Json(frontier.size()));
    result.set("classified", Json(infos.completed));
    result.set("bivalent", Json(bivalent));
    result.set("univalent0", Json(uni0));
    result.set("univalent1", Json(uni1));
    result.set("exact", Json(exact));
  } else if (req.query == "diameter") {
    Tracer::Scope span(tr, "relation.diameter", id);
    auto d = s_diameter(model, frontier, g);
    truncated = truncated || d.truncation != guard::TruncationReason::kNone;
    result.set("frontier", Json(frontier.size()));
    result.set("sources_completed", Json(d.completed));
    result.set("diameter",
               d.value.has_value() ? Json(*d.value) : Json(nullptr));
    result.set("connected", Json(d.value.has_value()));
  } else if (req.query == "similarity") {
    Tracer::Scope span(tr, "relation.similarity", id);
    auto graph = similarity_graph(model, frontier, g);
    truncated = truncated || !graph.complete();
    result.set("frontier", Json(frontier.size()));
    result.set("edges", Json(graph.value.edge_count()));
    result.set("connected", graph.complete() ? Json(graph.value.connected())
                                             : Json(nullptr));
  }
  Json resp;
  resp.set("id", req.id);
  resp.set("status", Json(truncated ? "truncated" : "ok"));
  resp.set("result", std::move(result));
  // The daemon's metrics object, so that serializing costs the same.
  Json metrics;
  metrics.set("elapsed_ms", Json((now_ns(CLOCK_MONOTONIC) - start) * 1e-6));
  metrics.set("states", Json(model.num_states()));
  metrics.set("views", Json(model.num_views()));
  metrics.set("new_states", Json(model.num_states() - states_before));
  metrics.set("new_views", Json(model.num_views() - views_before));
  metrics.set("symmetry", Json(model.sym_quotient_active()));
  resp.set("metrics", std::move(metrics));
  return Executed{std::move(resp), session, engine};
}

// One connection: its batches, in order, as handle_batch runs them.
void replay_connection(lacon::service::SessionManager& sessions,
                       const std::vector<std::vector<std::string>>& batches,
                       std::int64_t first_id, Tracer& tr,
                       std::vector<Answer>* answers) {
  using namespace lacon;
  std::int64_t id = first_id;
  for (const auto& batch : batches) {
    std::vector<std::pair<service::Session*, std::vector<ValenceEngine*>>>
        touched;
    std::vector<std::int64_t> ids;
    for (const std::string& line : batch) {
      const std::int64_t rid = id++;
      ids.push_back(rid);
      Tracer::Scope request(tr, "service.request", rid);
      service::Request req;
      bool parsed = false;
      {
        Tracer::Scope span(tr, "service.parse", rid);
        std::string error;
        std::optional<Json> doc = Json::parse(line, &error);
        parsed = doc && service::parse_request(*doc, &req, &error);
      }
      Answer a;
      a.req = rid;
      if (!parsed) {
        a.status = "error";
        answers->push_back(std::move(a));
        continue;
      }
      Executed ex = execute(sessions, req, tr, rid);
      auto it = touched.begin();
      while (it != touched.end() && it->first != ex.session) ++it;
      if (it == touched.end()) {
        touched.push_back({ex.session, {ex.engine}});
      } else {
        it->second.push_back(ex.engine);
      }
      {
        Tracer::Scope span(tr, "service.serialize", rid);
        const std::string text = ex.response.dump();
        (void)text;
      }
      a.status = ex.response.find("status")->as_string();
      a.result = ex.response.find("result")->dump();
      a.new_states =
          ex.response.find("metrics")->find("new_states")->as_number();
      answers->push_back(std::move(a));
    }
    // The batch's commit is charged to the batch's first request.
    Tracer::Scope span(tr, "store.commit", ids.empty() ? -1 : ids.front());
    for (auto& [session, engines] : touched) session->commit_wal(engines);
  }
}

int run_replay(const char* script_path, bool spans, const char* out_path) {
  using namespace lacon;
  std::ifstream in(script_path);
  std::stringstream text;
  text << in.rdbuf();
  std::string error;
  std::optional<Json> script = Json::parse(text.str(), &error);
  if (!script) {
    std::fprintf(stderr, "lacon_perf: bad script: %s\n", error.c_str());
    return 2;
  }
  auto lines_of = [](const Json& arr) {
    std::vector<std::string> out;
    for (const Json& l : arr.as_array()) out.push_back(l.as_string());
    return out;
  };
  const std::vector<std::string> setup = lines_of(*script->find("setup"));
  std::vector<std::vector<std::vector<std::string>>> conns;
  for (const Json& c : script->find("connections")->as_array()) {
    auto& batches = conns.emplace_back();
    for (const Json& b : c.as_array()) batches.push_back(lines_of(b));
  }

  const Probes probes;
  service::SessionManager sessions;
  Tracer setup_tracer(spans, &probes);
  std::vector<Answer> setup_answers;
  const std::int64_t t_setup = now_ns(CLOCK_MONOTONIC);
  std::vector<std::vector<std::string>> setup_batches;
  for (const std::string& l : setup) setup_batches.push_back({l});
  replay_connection(sessions, setup_batches, 0, setup_tracer, &setup_answers);
  const std::int64_t t_start = now_ns(CLOCK_MONOTONIC);

  std::vector<std::unique_ptr<Tracer>> tracers;
  std::vector<std::vector<Answer>> answers(conns.size());
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < conns.size(); ++c) {
    tracers.push_back(std::make_unique<Tracer>(spans, &probes));
  }
  for (std::size_t c = 0; c < conns.size(); ++c) {
    const auto first_id = static_cast<std::int64_t>((c + 1) * 10'000'000);
    threads.emplace_back(replay_connection, std::ref(sessions),
                         std::cref(conns[c]), first_id, std::ref(*tracers[c]),
                         &answers[c]);
  }
  for (std::thread& th : threads) th.join();
  const std::int64_t t_end = now_ns(CLOCK_MONOTONIC);

  std::uint64_t states = 0, views = 0;
  for (const Json& l : script->find("sessions")->as_array()) {
    service::Request req;
    std::optional<Json> doc = Json::parse(l.as_string(), &error);
    if (!doc || !service::parse_request(*doc, &req, &error)) return 2;
    LayeredModel& m = sessions.session(req.kind, req.n, req.t).model();
    states += m.num_states();
    views += m.num_views();
  }

  std::ofstream out(out_path);
  out << "{\"setup_ns\":" << (t_start - t_setup)
      << ",\"timed_ns\":" << (t_end - t_start) << ",\"rss_mb\":" << vm_hwm_mb()
      << ",\"states\":" << states << ",\"views\":" << views
      << ",\"answers\":[";
  auto dump_answers = [&](const std::vector<Answer>& as) {
    out << "[";
    for (std::size_t i = 0; i < as.size(); ++i) {
      const Answer& a = as[i];
      out << (i ? ",\n" : "") << "{\"req\":" << a.req
          << ",\"status\":" << quote(a.status) << ",\"result\":"
          << (a.result.empty() ? "null" : a.result)
          << ",\"new_states\":" << a.new_states << "}";
    }
    out << "]";
  };
  dump_answers(setup_answers);
  for (const auto& as : answers) {
    out << ",";
    dump_answers(as);
  }
  out << "],";
  std::vector<const Tracer*> all{&setup_tracer};
  for (const auto& t : tracers) all.push_back(t.get());
  write_spans(out, all);
  out << "}\n";
  return out ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: lacon_perf verdicts N T DEPTH HORIZON SPANS OUT "
               "[--setup-only]\n"
               "       lacon_perf replay SCRIPT SPANS OUT\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 8 && std::strcmp(argv[1], "verdicts") == 0) {
    const bool setup_only =
        argc > 8 && std::strcmp(argv[8], "--setup-only") == 0;
    return run_verdicts(std::atoi(argv[2]), std::atoi(argv[3]),
                        std::atoi(argv[4]), std::atoi(argv[5]),
                        std::atoi(argv[6]) != 0, argv[7], setup_only);
  }
  if (argc == 5 && std::strcmp(argv[1], "replay") == 0) {
    return run_replay(argv[2], std::atoi(argv[3]) != 0, argv[4]);
  }
  return usage();
}
