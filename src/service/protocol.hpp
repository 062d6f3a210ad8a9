// The laconrd wire protocol: newline-delimited JSON analysis requests.
//
// One request per line, one response line per request. A request names a
// model instance and a query; the daemon interns all requests for the same
// (model, n, t) into ONE shared state space — a Session — so later requests
// warm-start on everything earlier ones explored (hash-consing makes the
// re-interning hits, the layer cache and valence memo make the analysis
// incremental). Request schema:
//
//   {"id": <any>,              echoed verbatim in the response
//    "model": "mobile" | "sharedmem" | "msgpass" | "sync"  (default mobile)
//    "n": <int>, "t": <int>,   t only meaningful for "sync"
//    "query": "layers" | "valence" | "diameter" | "similarity" | "stats",
//    "depth": <int>,           exploration depth (default 2)
//    "horizon": <int>,         valence lookahead (default depth + 1)
//    "budget_ms": <int>,       per-request wall-clock budget (0 = none)
//    "max_states": <int>,      per-request arena budget (0 = none)
//    "metrics": <bool>}        embed the full lacon.metrics.v2 snapshot
//
// Response: {"id", "status": "ok" | "truncated" | "error", result fields
// per query, "truncation": <guard reason> when truncated, "error": <msg>
// on error, "metrics": {elapsed_ms, states, views, new_states, new_views,
// symmetry, cached}}. Results are id-free (counts, level sizes, diameters)
// — raw StateIds are scheduling-dependent and never cross the wire
// (DESIGN.md §9). A "stats" query answers {"id", "status": "ok",
// "snapshot": <lacon.metrics.v2>} and touches no session.
//
// Each session keeps the first complete answer to every unbudgeted
// request (no budget_ms, no max_states) and replays it to later ones with
// the same (query, depth[, horizon]); metrics.cached says which happened.
//
// Budgets ride on lacon::guard: each request gets its own live Guard, so a
// tiny budget truncates that request to a valid partial result (with its
// TruncationReason) while concurrent requests on other connections keep
// their own budgets — exactly the Partial<T> contract the engine layers
// already honor. Handling is thread-safe: each arena interns under one
// mutex and publishes ids after their content, and the layer cache and
// valence memo publish per-state atomic slots that reads take without a
// lock, so requests against the same session run concurrently, one
// connection thread each.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "analysis/reports.hpp"
#include "service/json.hpp"

namespace lacon::store {
class Wal;
}  // namespace lacon::store

namespace lacon::service {

struct Request {
  Json id;
  ModelKind kind = ModelKind::kMobile;
  int n = 3;
  int t = 1;
  std::string query = "layers";
  int depth = 2;
  int horizon = 3;
  std::int64_t budget_ms = 0;
  std::uint64_t max_states = 0;
  bool include_metrics = false;
};

// Parses and validates one request object. Returns false and fills `error`
// on schema violations (unknown model/query, out-of-range n/t/depth).
bool parse_request(const Json& doc, Request* out, std::string* error);

// One interned state space shared by every request for (kind, n, t).
class Session {
 public:
  Session(ModelKind kind, int n, int t);
  ~Session();

  LayeredModel& model() noexcept { return *model_; }
  ModelKind kind() const noexcept { return kind_; }
  int n() const noexcept { return n_; }
  int t() const noexcept { return t_; }

  // The engine for a given lookahead (created on first use). Its memo is
  // the session's valence cache for that horizon, shared by every request
  // at it; engines of different horizons share nothing.
  ValenceEngine& engine(int horizon);

  // First-request hook, a no-op unless LACON_WAL is on: replays the
  // instance's snapshot, if one exists, into the (still empty) model as the
  // log's base — with `eng`'s memo imported when the stored horizon/mode
  // match — then opens the session's WAL and replays its records over it
  // (kill -9 recovery). Only `eng` gets memo entries back; an engine made
  // later for another horizon starts with an empty memo. A snapshot that
  // exists but cannot be loaded is quarantined to `<path>.bad` together
  // with its log, and an unreadable WAL to `<wal path>.bad`; either way the
  // session starts a fresh log rather than ever crashing the daemon, and
  // the next response carries a notice naming the quarantined files. Runs
  // at most once per session; failures fall back to a cold start (one
  // stderr line).
  void ensure_store_loaded(ValenceEngine* eng);

  // Durability commit point (LACON_WAL=on; no-op otherwise): returns only
  // once everything the requests that ran against `engines` interned or
  // cached is fsync'd in the WAL. handle_batch calls this after a batch's
  // analysis and BEFORE any of its responses is sent, so a response on the
  // wire implies its work survives kill -9. Takes the store mutex and
  // appends once (Wal::append): the append drains everything the model
  // queued and `engines` memoized before it ran, plus the states and views
  // past the durability watermarks, which covers the callers' finished
  // work. Deltas other requests finish while a caller waits for the mutex
  // coalesce into its append; a caller whose work an earlier append took
  // finds nothing queued and writes nothing. Compacts the log into a fresh
  // snapshot once it outgrows store::kWalCompactRatio times the snapshot.
  void commit_wal(const std::vector<ValenceEngine*>& engines);

  // The answer cache (DESIGN.md §12): the serialized "result" of the first
  // complete answer to each unbudgeted request, keyed by its query and
  // depth, plus its horizon for "valence". A complete answer is a function
  // of one complete level, which never changes within a session, so an
  // entry is never invalidated, and PROTOCOL.md's ranges bound the key
  // space at 468 entries. cached_answer returns nullopt on a miss;
  // cache_answer keeps the first answer stored under a key.
  std::optional<std::string> cached_answer(const Request& req);
  void cache_answer(const Request& req, std::string result);

  // Drains the pending operator notice (empty if none): set when store
  // recovery quarantined a refused snapshot or an unreadable WAL, and
  // attached to the session's next response as a "notice" field so
  // operators learn the quarantined files' paths from the wire, not just
  // stderr.
  std::string take_notice();

 private:
  ModelKind kind_;
  int n_;
  int t_;
  std::unique_ptr<DecisionRule> rule_;
  std::unique_ptr<LayeredModel> model_;
  std::mutex engines_mu_;
  std::map<int, std::unique_ptr<ValenceEngine>> engines_;

  // (query, depth, horizon or -1) -> serialized result.
  std::mutex answers_mu_;
  std::map<std::tuple<std::string, int, int>, std::string> answers_;

  // Serializes store loads, appends, compaction and the notice.
  std::mutex store_mu_;
  bool store_attempted_ = false;
  std::unique_ptr<store::Wal> wal_;       // null unless LACON_WAL=on
  std::uint64_t snapshot_bytes_ = 0;      // compaction baseline
  std::string pending_notice_;            // guarded by store_mu_
};

// Owns every session; thread-safe. Sessions are created on demand and live
// for the manager's lifetime, so references stay valid across requests.
class SessionManager {
 public:
  Session& session(ModelKind kind, int n, int t);

  std::size_t session_count();

 private:
  std::mutex mu_;
  std::map<std::tuple<int, int, int>, std::unique_ptr<Session>> sessions_;
};

// The one request path: executes the NDJSON request lines one connection
// read — parse, validate, execute, serialize. Requests execute IN ORDER,
// every session the batch touched is committed ONCE (all the batch's work
// shares one WAL fsync; a "stats" line touches none), and only then are
// the responses returned — in request order, one one-line JSON response
// per line (parse failures become status "error" with a null id). Never
// throws. The commit precedes every response byte, so any response on the
// wire implies the whole batch's work survives kill -9. See PROTOCOL.md
// "Pipelining".
std::vector<std::string> handle_batch(SessionManager& sessions,
                                      const std::vector<std::string>& lines);

// handle_batch over a batch of one line.
std::string handle_line(SessionManager& sessions, std::string_view line);

}  // namespace lacon::service
