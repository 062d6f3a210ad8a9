#include "service/protocol.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <new>
#include <utility>
#include <vector>

#include "engine/explore.hpp"
#include "engine/valence.hpp"
#include "relation/similarity.hpp"
#include "runtime/guard.hpp"
#include "runtime/stats.hpp"
#include "store/env.hpp"
#include "store/snapshot.hpp"
#include "store/wal.hpp"

namespace lacon::service {

namespace {

// Request bounds. The daemon shares one process with every connected
// client, so per-request shape limits are part of the protocol: n is capped
// where exhaustive exploration (and the snapshot lossless-round-trip
// contract) lives, depth where the run tree stays enumerable, horizon at
// the engine's own bound.
constexpr int kMinN = 2, kMaxN = 8;
constexpr int kMaxDepth = 12;
constexpr int kMaxHorizon = ValenceEngine::kMaxHorizon;

bool parse_kind(const std::string& text, ModelKind* out) {
  if (text == "mobile") {
    *out = ModelKind::kMobile;
  } else if (text == "sharedmem") {
    *out = ModelKind::kSharedMem;
  } else if (text == "msgpass") {
    *out = ModelKind::kMsgPass;
  } else if (text == "sync") {
    *out = ModelKind::kSync;
  } else {
    return false;
  }
  return true;
}

bool get_int(const Json& doc, const char* key, int fallback, int lo, int hi,
             int* out, std::string* error) {
  const Json* v = doc.find(key);
  if (v == nullptr) {
    *out = fallback;
    return true;
  }
  if (!v->is_number()) {
    *error = std::string(key) + " must be a number";
    return false;
  }
  const double d = v->as_number();
  if (d != std::floor(d) || d < lo || d > hi) {
    *error = std::string(key) + " must be an integer in [" +
             std::to_string(lo) + ", " + std::to_string(hi) + "]";
    return false;
  }
  *out = static_cast<int>(d);
  return true;
}

// Quotiented sessions (LACON_SYMMETRY=on, core/sym.hpp) intern one orbit
// representative per process-permutation class, so raw counts over the
// arena undercount the full space. Responses stay mode-independent by
// weighting every representative by |orbit| — a sum that reproduces the
// unquotiented count exactly — and by unfolding path-query frontiers to
// whole orbits. orbit_weight/unfold_orbit are identity when the quotient
// is off, so the same code serves both modes.
std::uint64_t orbit_sum(LayeredModel& model, const std::vector<StateId>& X,
                        std::size_t count) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < count && i < X.size(); ++i) {
    total += model.orbit_weight(X[i]);
  }
  return total;
}

std::vector<StateId> unfold_frontier(LayeredModel& model,
                                     const std::vector<StateId>& frontier) {
  if (!model.sym_quotient_active()) return frontier;
  std::vector<StateId> full;
  for (StateId x : frontier) {
    for (StateId y : model.unfold_orbit(x)) full.push_back(y);
  }
  std::sort(full.begin(), full.end());
  full.erase(std::unique(full.begin(), full.end()), full.end());
  return full;
}

// The answer cache's key: only a valence answer depends on the horizon.
std::tuple<std::string, int, int> answer_key(const Request& req) {
  return {req.query, req.depth, req.query == "valence" ? req.horizon : -1};
}

}  // namespace

bool parse_request(const Json& doc, Request* out, std::string* error) {
  if (!doc.is_object()) {
    *error = "request must be a JSON object";
    return false;
  }
  if (const Json* id = doc.find("id")) out->id = *id;

  if (const Json* model = doc.find("model")) {
    if (!model->is_string() || !parse_kind(model->as_string(), &out->kind)) {
      *error = "model must be one of mobile|sharedmem|msgpass|sync";
      return false;
    }
  }
  if (!get_int(doc, "n", 3, kMinN, kMaxN, &out->n, error)) return false;
  if (!get_int(doc, "t", 1, 1, out->n - 1, &out->t, error)) return false;
  if (!get_int(doc, "depth", 2, 0, kMaxDepth, &out->depth, error)) {
    return false;
  }
  if (!get_int(doc, "horizon", out->depth + 1, 0, kMaxHorizon, &out->horizon,
               error)) {
    return false;
  }

  const Json* query = doc.find("query");
  if (query != nullptr) {
    if (!query->is_string()) {
      *error = "query must be a string";
      return false;
    }
    out->query = query->as_string();
  }
  if (out->query != "layers" && out->query != "valence" &&
      out->query != "diameter" && out->query != "similarity" &&
      out->query != "stats") {
    *error = "query must be one of layers|valence|diameter|similarity|stats";
    return false;
  }

  int budget_ms = 0;
  if (!get_int(doc, "budget_ms", 0, 0, 86'400'000, &budget_ms, error)) {
    return false;
  }
  out->budget_ms = budget_ms;
  int max_states = 0;
  if (!get_int(doc, "max_states", 0, 0, 1'000'000'000, &max_states, error)) {
    return false;
  }
  out->max_states = static_cast<std::uint64_t>(max_states);
  if (const Json* m = doc.find("metrics")) out->include_metrics = m->as_bool();
  return true;
}

Session::Session(ModelKind kind, int n, int t)
    : kind_(kind),
      n_(n),
      t_(t),
      // FloodSet-style rule that genuinely decides, so valence queries are
      // about something: t+1 rounds solve consensus in Sync/S^t; round 2 is
      // the convention the bench harnesses use for the other three models.
      rule_(min_after_round(kind == ModelKind::kSync ? t + 1 : 2)),
      model_(make_model(kind, n, t, *rule_)) {}

Session::~Session() = default;

ValenceEngine& Session::engine(int horizon) {
  std::lock_guard<std::mutex> lock(engines_mu_);
  auto it = engines_.find(horizon);
  if (it == engines_.end()) {
    it = engines_
             .emplace(horizon, std::make_unique<ValenceEngine>(
                                   *model_, horizon, default_exactness(kind_)))
             .first;
  }
  return *it->second;
}

void Session::ensure_store_loaded(ValenceEngine* eng) {
  std::lock_guard<std::mutex> lock(store_mu_);
  if (store_attempted_) return;
  store_attempted_ = true;
  if (!store::wal_enabled()) return;

  // Snapshot first: it is the base the log replays over (and the
  // compaction target).
  const std::string path = store::snapshot_path(*model_);
  const std::string wpath = store::wal_path(*model_);
  store::SnapshotMeta meta;
  std::error_code ec;
  const bool snapshot_exists = std::filesystem::exists(path, ec);
  const store::Result r = store::load(*model_, path, eng, &meta);
  if (r.ok()) {
    snapshot_bytes_ = meta.file_bytes;
  } else if (snapshot_exists) {
    // No file is the common no-snapshot-yet case. A file that could not be
    // loaded (refused, unreadable, or an allocation failure while
    // applying) is not the base its log replays over, so replaying would
    // cut the log: both are quarantined and the session starts cold with a
    // fresh log.
    std::fprintf(stderr,
                 "laconrd: snapshot load failed (%s): %s; quarantining to "
                 "%s.bad and %s.bad\n",
                 store::to_string(r.status), r.detail.c_str(), path.c_str(),
                 wpath.c_str());
    std::rename(path.c_str(), (path + ".bad").c_str());
    std::rename(wpath.c_str(), (wpath + ".bad").c_str());
    pending_notice_ = "snapshot quarantined to " + path +
                      ".bad and its wal to " + wpath + ".bad (" +
                      store::to_string(r.status) + ": " + r.detail + ")";
    // A failure met while applying (a duplicate record, an allocation
    // failure) leaves the records before it in the model: a fresh snapshot
    // makes them the new log's base.
    if (model_->num_views() != 0 &&
        store::save(*model_, path, eng, &meta).ok()) {
      snapshot_bytes_ = meta.file_bytes;
    }
  }

  wal_ = std::make_unique<store::Wal>();
  store::Result w = wal_->open(*model_, wpath);
  if (w.ok()) {
    store::WalReplayStats rs;
    w = wal_->replay(*model_, eng, &rs);
    if (w.ok() && rs.truncated_bytes > 0) {
      std::fprintf(stderr,
                   "laconrd: wal %s: truncated %llu torn tail bytes, "
                   "replayed %llu records\n",
                   wpath.c_str(),
                   static_cast<unsigned long long>(rs.truncated_bytes),
                   static_cast<unsigned long long>(rs.records_applied));
    }
  }
  if (!w.ok()) {
    // A log we cannot trust end to end gets quarantined, the current model
    // content is made durable by an immediate snapshot, and a fresh log
    // starts from there. The daemon never refuses to serve over a bad log.
    std::fprintf(stderr,
                 "laconrd: wal recovery failed (%s): %s; quarantining to "
                 "%s.bad\n",
                 store::to_string(w.status), w.detail.c_str(), wpath.c_str());
    wal_->close();
    std::rename(wpath.c_str(), (wpath + ".bad").c_str());
    // Surface the quarantine on the wire too (stderr alone is invisible to
    // remote operators): the next response for this session carries a
    // "notice" naming the quarantined file.
    if (!pending_notice_.empty()) pending_notice_ += "; ";
    pending_notice_ += "wal quarantined to " + wpath + ".bad (" +
                       store::to_string(w.status) + ": " + w.detail + ")";
    const store::Result s = store::save(*model_, path, eng, &meta);
    if (s.ok()) {
      snapshot_bytes_ = meta.file_bytes;
    } else {
      std::fprintf(stderr, "laconrd: snapshot save failed (%s): %s\n",
                   store::to_string(s.status), s.detail.c_str());
    }
    store::Result reopened = wal_->open(*model_, wpath);
    if (reopened.ok()) reopened = wal_->replay(*model_, eng);
    if (!reopened.ok()) {
      std::fprintf(stderr, "laconrd: wal disabled for this session (%s): %s\n",
                   store::to_string(reopened.status),
                   reopened.detail.c_str());
      wal_.reset();
    }
  }
}

void Session::commit_wal(const std::vector<ValenceEngine*>& engines) {
  // wal_ is written exactly once, inside this thread's earlier
  // ensure_store_loaded call (under store_mu_), so the unlocked read here
  // is ordered after that write.
  if (wal_ == nullptr) return;

  std::unique_lock<std::mutex> lock(store_mu_, std::try_to_lock);
  if (!lock.owns_lock()) {
    runtime::Stats::global().counter("service.commit_waits").increment();
    lock.lock();
  }
  const store::Result r = wal_->append(*model_, engines);
  if (!r.ok()) {
    std::fprintf(stderr, "laconrd: wal append failed (%s): %s\n",
                 store::to_string(r.status), r.detail.c_str());
    return;
  }
  if (!wal_->should_compact(snapshot_bytes_)) return;
  // The log dwarfs the snapshot: fold everything into a fresh snapshot and
  // restart the log from it. The watermark counts are the ones save wrote
  // into the file, not the live model's — interning may have raced the
  // save.
  ValenceEngine* eng = engines.empty() ? nullptr : engines.front();
  const std::string path = store::snapshot_path(*model_);
  store::SnapshotMeta meta;
  const store::Result s = store::save(*model_, path, eng, &meta);
  if (!s.ok()) {
    std::fprintf(stderr, "laconrd: compaction snapshot failed (%s): %s\n",
                 store::to_string(s.status), s.detail.c_str());
    return;
  }
  snapshot_bytes_ = meta.file_bytes;
  const store::Result t =
      wal_->reset_to(*model_, meta.num_views, meta.num_states, eng);
  if (!t.ok()) {
    std::fprintf(stderr, "laconrd: wal reset failed (%s): %s\n",
                 store::to_string(t.status), t.detail.c_str());
  }
}

std::optional<std::string> Session::cached_answer(const Request& req) {
  std::lock_guard<std::mutex> lock(answers_mu_);
  auto it = answers_.find(answer_key(req));
  if (it == answers_.end()) return std::nullopt;
  return it->second;
}

void Session::cache_answer(const Request& req, std::string result) {
  std::lock_guard<std::mutex> lock(answers_mu_);
  answers_.try_emplace(answer_key(req), std::move(result));
}

std::string Session::take_notice() {
  std::lock_guard<std::mutex> lock(store_mu_);
  std::string out;
  out.swap(pending_notice_);
  return out;
}

Session& SessionManager::session(ModelKind kind, int n, int t) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto key = std::make_tuple(static_cast<int>(kind), n, t);
  auto it = sessions_.find(key);
  if (it == sessions_.end()) {
    it = sessions_.emplace(key, std::make_unique<Session>(kind, n, t)).first;
  }
  return *it->second;
}

std::size_t SessionManager::session_count() {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

namespace {

// One executed-but-not-yet-committed request: the response document plus
// the session/engine whose delta still needs a WAL commit. handle_batch
// commits each touched session once for the whole batch.
struct Executed {
  Json response;
  Session* session = nullptr;
  ValenceEngine* engine = nullptr;
};

// The computing path: explores to req.depth under the request's own guard
// and answers the query over the last level. Sets `reason` when a budget
// (or an injected fault) cut the answer short.
Json compute_result(LayeredModel& model, ValenceEngine& engine,
                    const Request& req, guard::TruncationReason* reason) {
  guard::Guard g;  // live even without limits: fault probes still apply
  if (req.budget_ms > 0) {
    g.with_deadline(std::chrono::milliseconds(req.budget_ms));
  }
  if (req.max_states > 0) g.with_state_budget(req.max_states);

  Json result;
  try {
    auto levels = reachable_by_depth(model, req.depth, g);
    *reason = levels.truncation;
    const std::vector<StateId> frontier =
        levels.value.empty() ? std::vector<StateId>{} : levels.value.back();

    if (req.query == "layers") {
      Json sizes{Json::Array{}};
      std::uint64_t total = 0;
      for (const auto& level : levels.value) {
        const std::uint64_t weighted = orbit_sum(model, level, level.size());
        sizes.array().push_back(Json(weighted));
        total += weighted;
      }
      result.set("depth_completed", Json(levels.completed));
      result.set("level_sizes", std::move(sizes));
      result.set("total_states", Json(total));
    } else if (req.query == "valence") {
      auto infos = engine.classify_all(frontier, g);
      if (*reason == guard::TruncationReason::kNone) *reason = infos.truncation;
      // Valence is permutation-invariant (a symmetric rule decides the same
      // values along π·run as along run), so one representative's verdict
      // counts for its whole orbit.
      std::uint64_t bivalent = 0, uni0 = 0, uni1 = 0, exact = 0;
      for (std::size_t i = 0; i < infos.value.size(); ++i) {
        const ValenceInfo& v = infos.value[i];
        const std::uint64_t w = model.orbit_weight(frontier[i]);
        if (v.bivalent()) bivalent += w;
        if (v.univalent() && v.value() == 0) uni0 += w;
        if (v.univalent() && v.value() == 1) uni1 += w;
        if (v.exact) exact += w;
      }
      result.set("frontier", Json(orbit_sum(model, frontier, frontier.size())));
      result.set("classified", Json(orbit_sum(model, frontier, infos.completed)));
      result.set("bivalent", Json(bivalent));
      result.set("univalent0", Json(uni0));
      result.set("univalent1", Json(uni1));
      result.set("exact", Json(exact));
    } else if (req.query == "diameter") {
      const std::vector<StateId> full = unfold_frontier(model, frontier);
      auto d = s_diameter(model, full, g);
      if (*reason == guard::TruncationReason::kNone) *reason = d.truncation;
      result.set("frontier", Json(full.size()));
      result.set("sources_completed", Json(d.completed));
      result.set("diameter",
                 d.value.has_value() ? Json(*d.value) : Json(nullptr));
      result.set("connected", Json(d.value.has_value()));
    } else {  // similarity
      const std::vector<StateId> full = unfold_frontier(model, frontier);
      auto graph = similarity_graph(model, full, g);
      if (*reason == guard::TruncationReason::kNone) {
        *reason = graph.truncation;
      }
      result.set("frontier", Json(full.size()));
      result.set("edges", Json(graph.value.edge_count()));
      if (graph.complete()) {
        result.set("connected", Json(graph.value.connected()));
      } else {
        // Connectivity of a partial graph bounds nothing.
        result.set("connected", Json(nullptr));
      }
    }
  } catch (const std::bad_alloc&) {
    // Injected allocation faults (runtime/fault.hpp) or real exhaustion:
    // report this request truncated by its state budget, keep serving.
    g.note_memory_exhausted();
    *reason = guard::TruncationReason::kStateBudget;
  }
  return result;
}

Executed execute_request(SessionManager& sessions, const Request& req) {
  const auto start = std::chrono::steady_clock::now();
  auto& stats = runtime::Stats::global();
  stats.counter("service.requests").increment();

  Session& session = sessions.session(req.kind, req.n, req.t);
  ValenceEngine& engine = session.engine(req.horizon);
  session.ensure_store_loaded(&engine);
  LayeredModel& model = session.model();
  const std::size_t states_before = model.num_states();
  const std::size_t views_before = model.num_views();

  // A budget may cut an answer short, so budgeted requests neither read
  // nor fill the session's answer cache; the computing path below is its
  // only filler, and only with complete answers.
  const bool unbudgeted = req.budget_ms == 0 && req.max_states == 0;
  std::optional<std::string> cached;
  if (unbudgeted) cached = session.cached_answer(req);
  guard::TruncationReason reason = guard::TruncationReason::kNone;
  Json result;
  if (cached) {
    stats.counter("service.answer_hits").increment();
    result = Json::raw(std::move(*cached));
  } else {
    result = compute_result(model, engine, req, &reason);
    if (unbudgeted && reason == guard::TruncationReason::kNone) {
      session.cache_answer(req, result.dump());
    }
  }

  Json resp;
  resp.set("id", req.id);
  resp.set("status", reason == guard::TruncationReason::kNone
                         ? Json("ok")
                         : Json("truncated"));
  if (reason != guard::TruncationReason::kNone) {
    resp.set("truncation", Json(guard::to_string(reason)));
    stats.counter("service.requests_truncated").increment();
  }
  resp.set("result", std::move(result));

  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  Json metrics;
  metrics.set("elapsed_ms", Json(elapsed_ms));
  metrics.set("states", Json(model.num_states()));
  metrics.set("views", Json(model.num_views()));
  metrics.set("new_states", Json(model.num_states() - states_before));
  metrics.set("new_views", Json(model.num_views() - views_before));
  // Raw arena counts are mode-dependent (a quotiented arena holds one
  // representative per orbit); stamping the mode here keeps them
  // interpretable. The "result" object above is mode-independent.
  metrics.set("symmetry", Json(model.sym_quotient_active()));
  metrics.set("cached", Json(cached.has_value()));
  resp.set("metrics", std::move(metrics));
  if (req.include_metrics) {
    // The same lacon.metrics.v2 document the bench harnesses emit.
    resp.set("snapshot", Json::raw(runtime::metrics_snapshot_json()));
  }
  // Operator notice from store recovery (e.g. "wal quarantined to <path>"):
  // attached to whichever response drains it first, so the quarantined
  // file's path reaches the wire rather than only stderr.
  const std::string notice = session.take_notice();
  if (!notice.empty()) resp.set("notice", Json(notice));
  // A replayed answer still commits its session: the computation it
  // replays may be another connection's, not yet durable.
  return Executed{std::move(resp), &session, &engine};
}

// The "stats" query: the live lacon.metrics.v2 document. It reads the
// stats registry only, so it creates no session and commits nothing.
Json stats_response(const Request& req) {
  Json resp;
  resp.set("id", req.id);
  resp.set("status", Json("ok"));
  resp.set("snapshot", Json::raw(runtime::metrics_snapshot_json()));
  return resp;
}

// Parses one NDJSON line into `req`. On failure fills `error_resp` with the
// one-line error response (null id unless the id parsed) and returns false.
bool parse_line(std::string_view line, Request* req, Json* error_resp) {
  std::string error;
  std::optional<Json> doc = Json::parse(line, &error);
  if (doc && parse_request(*doc, req, &error)) return true;
  runtime::Stats::global().counter("service.requests_rejected").increment();
  error_resp->set("id", doc ? req->id : Json(nullptr));
  error_resp->set("status", Json("error"));
  error_resp->set("error", Json(error.empty() ? "malformed request" : error));
  return false;
}

}  // namespace

std::vector<std::string> handle_batch(SessionManager& sessions,
                                      const std::vector<std::string>& lines) {
  std::vector<std::string> out;
  out.reserve(lines.size());
  // Sessions touched by this batch, in first-touch order, with every engine
  // the batch ran against them. A connection rarely touches more than a
  // couple of sessions, so linear scan beats a map here.
  std::vector<std::pair<Session*, std::vector<ValenceEngine*>>> touched;
  for (const std::string& line : lines) {
    Request req;
    Json error_resp;
    if (!parse_line(line, &req, &error_resp)) {
      out.push_back(error_resp.dump());
      continue;
    }
    if (req.query == "stats") {
      out.push_back(stats_response(req).dump());
      continue;
    }
    Executed ex = execute_request(sessions, req);
    auto it = touched.begin();
    while (it != touched.end() && it->first != ex.session) ++it;
    if (it == touched.end()) {
      touched.push_back({ex.session, {ex.engine}});
    } else {
      it->second.push_back(ex.engine);
    }
    out.push_back(ex.response.dump());
  }
  // One commit per touched session: the whole batch's work shares one
  // fsync (Wal's batch append), and the commit still precedes every
  // response byte on the wire — the caller only sends after we return, so
  // kill -9 after a response never loses that response's work.
  for (auto& [session, engines] : touched) {
    session->commit_wal(engines);
  }
  return out;
}

std::string handle_line(SessionManager& sessions, std::string_view line) {
  return handle_batch(sessions, {std::string(line)}).front();
}

}  // namespace lacon::service
