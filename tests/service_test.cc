// laconrd — wire protocol, JSON layer and Unix-socket server.
//
// The concurrency shape under test (satellite 6 of the persistence PR; this
// suite is in the TSan soak loop in ci.sh): two clients on separate
// connections hit the SAME session concurrently — one with a starvation
// budget, one unbudgeted. The budgeted request must come back "truncated"
// with its TruncationReason while the other completes "ok", and both share
// one interned state space (the second request's new_states is 0 once the
// first finished exploring).
#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "core/model.hpp"
#include "core/sym.hpp"
#include "engine/explore.hpp"
#include "engine/valence.hpp"
#include "runtime/fault.hpp"
#include "runtime/stats.hpp"
#include "service/json.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "store/env.hpp"
#include "store/snapshot.hpp"
#include "store/wal.hpp"
#include "store_bytes.hpp"

namespace lacon::service {
namespace {

// --- Json ------------------------------------------------------------------

TEST(JsonTest, ParseScalars) {
  EXPECT_TRUE(Json::parse("null")->is_null());
  EXPECT_TRUE(Json::parse("true")->as_bool());
  EXPECT_FALSE(Json::parse("false")->as_bool(true));
  EXPECT_EQ(Json::parse("42")->as_number(), 42.0);
  EXPECT_EQ(Json::parse("-3.5e2")->as_number(), -350.0);
  EXPECT_EQ(Json::parse("\"hi\"")->as_string(), "hi");
  EXPECT_EQ(Json::parse("\"a\\u0041\\n\"")->as_string(), "aA\n");
}

TEST(JsonTest, ParseContainersPreserveOrder) {
  const auto doc = Json::parse("{\"b\":1,\"a\":[true,null,\"x\"]}");
  ASSERT_TRUE(doc.has_value());
  const Json::Object& obj = doc->as_object();
  ASSERT_EQ(obj.size(), 2u);
  EXPECT_EQ(obj[0].first, "b");  // insertion order, not sorted
  EXPECT_EQ(obj[1].first, "a");
  const Json::Array& arr = doc->find("a")->as_array();
  ASSERT_EQ(arr.size(), 3u);
  EXPECT_TRUE(arr[1].is_null());
}

TEST(JsonTest, DumpRoundTrips) {
  const std::string text =
      "{\"id\":7,\"name\":\"M^mf/S1\",\"flags\":[true,false],\"nested\":"
      "{\"x\":-1.5}}";
  const auto doc = Json::parse(text);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->dump(), text);  // integral 7 stays "7", order preserved
}

TEST(JsonTest, RejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(Json::parse("", &error).has_value());
  EXPECT_FALSE(Json::parse("{", &error).has_value());
  EXPECT_FALSE(Json::parse("{\"a\":}", &error).has_value());
  EXPECT_FALSE(Json::parse("[1,]", &error).has_value());
  EXPECT_FALSE(Json::parse("\"unterminated", &error).has_value());
  EXPECT_FALSE(Json::parse("\"bad\\q\"", &error).has_value());
  EXPECT_FALSE(Json::parse("nulll", &error).has_value());
  EXPECT_FALSE(Json::parse("1 2", &error).has_value());  // trailing garbage
  EXPECT_FALSE(error.empty());
  // A number strtod can only answer with ±HUGE_VAL has no JSON rendering.
  for (const char* text :
       {"1e999", "-1e999", "[1e999]", "{\"a\":[0,-1e400]}"}) {
    EXPECT_FALSE(Json::parse(text, &error).has_value()) << text;
    EXPECT_NE(error.find("number out of range at byte"), std::string::npos)
        << text << ": " << error;
  }
  EXPECT_EQ(error, "number out of range at byte 8");  // the token's offset
  EXPECT_TRUE(Json::parse("[1e308,1e-999]").has_value());
}

TEST(JsonTest, DepthCapStopsAdversarialNesting) {
  // 40k opening brackets must fail cleanly, not overflow the stack.
  std::string deep(40000, '[');
  EXPECT_FALSE(Json::parse(deep).has_value());
}

TEST(JsonTest, RawSplicesVerbatim) {
  Json obj;
  obj.set("snapshot", Json::raw("{\"pre\":\"serialized\"}"));
  EXPECT_EQ(obj.dump(), "{\"snapshot\":{\"pre\":\"serialized\"}}");
}

TEST(JsonTest, EscapeControlCharacters) {
  EXPECT_EQ(json_escape("a\"b\\c\n\t"), "a\\\"b\\\\c\\n\\t");
  const Json j = std::string("\x01");
  EXPECT_EQ(j.dump(), "\"\\u0001\"");
}

// --- parse_request ---------------------------------------------------------

Request must_parse(const std::string& text) {
  const auto doc = Json::parse(text);
  EXPECT_TRUE(doc.has_value()) << text;
  Request req;
  std::string error;
  EXPECT_TRUE(parse_request(*doc, &req, &error)) << error;
  return req;
}

std::string parse_error(const std::string& text) {
  const auto doc = Json::parse(text);
  EXPECT_TRUE(doc.has_value()) << text;
  Request req;
  std::string error;
  EXPECT_FALSE(parse_request(*doc, &req, &error)) << text;
  return error;
}

TEST(ParseRequestTest, DefaultsAndOverrides) {
  const Request defaults = must_parse("{\"id\":1}");
  EXPECT_EQ(defaults.kind, ModelKind::kMobile);
  EXPECT_EQ(defaults.n, 3);
  EXPECT_EQ(defaults.t, 1);
  EXPECT_EQ(defaults.query, "layers");
  EXPECT_EQ(defaults.depth, 2);
  EXPECT_EQ(defaults.horizon, 3);  // depth + 1
  EXPECT_EQ(defaults.budget_ms, 0);
  EXPECT_FALSE(defaults.include_metrics);

  const Request full = must_parse(
      "{\"id\":\"q7\",\"model\":\"sync\",\"n\":4,\"t\":2,\"query\":"
      "\"valence\",\"depth\":3,\"horizon\":5,\"budget_ms\":250,"
      "\"max_states\":1000,\"metrics\":true}");
  EXPECT_EQ(full.kind, ModelKind::kSync);
  EXPECT_EQ(full.n, 4);
  EXPECT_EQ(full.t, 2);
  EXPECT_EQ(full.query, "valence");
  EXPECT_EQ(full.depth, 3);
  EXPECT_EQ(full.horizon, 5);
  EXPECT_EQ(full.budget_ms, 250);
  EXPECT_EQ(full.max_states, 1000u);
  EXPECT_TRUE(full.include_metrics);
}

TEST(ParseRequestTest, RejectsOutOfSchema) {
  EXPECT_FALSE(parse_error("{\"model\":\"carrier-pigeon\"}").empty());
  EXPECT_FALSE(parse_error("{\"query\":\"divination\"}").empty());
  EXPECT_FALSE(parse_error("{\"n\":1}").empty());    // below kMinN
  EXPECT_FALSE(parse_error("{\"n\":9}").empty());    // above kMaxN
  EXPECT_FALSE(parse_error("{\"n\":3,\"t\":3}").empty());  // t >= n
  EXPECT_FALSE(parse_error("{\"t\":0}").empty());
  EXPECT_FALSE(parse_error("{\"depth\":-1}").empty());
  EXPECT_FALSE(parse_error("{\"depth\":13}").empty());
  EXPECT_FALSE(parse_error("{\"horizon\":33}").empty());
  EXPECT_FALSE(parse_error("{\"n\":\"three\"}").empty());  // wrong type
  EXPECT_FALSE(parse_error("{\"n\":3.5}").empty());        // non-integral
}

// --- handle_line (no socket) -----------------------------------------------

const Json* find_path(const Json& doc, std::initializer_list<const char*> ks) {
  const Json* cur = &doc;
  for (const char* k : ks) {
    if (cur == nullptr) return nullptr;
    cur = cur->find(k);
  }
  return cur;
}

TEST(HandleLineTest, LayersQueryCountsLevels) {
  SessionManager sessions;
  const std::string response = handle_line(
      sessions,
      "{\"id\":1,\"model\":\"mobile\",\"n\":3,\"query\":\"layers\","
      "\"depth\":1}");
  const auto doc = Json::parse(response);
  ASSERT_TRUE(doc.has_value()) << response;
  EXPECT_EQ(find_path(*doc, {"id"})->as_number(), 1.0);
  EXPECT_EQ(find_path(*doc, {"status"})->as_string(), "ok");
  const Json::Array& sizes =
      find_path(*doc, {"result", "level_sizes"})->as_array();
  ASSERT_EQ(sizes.size(), 2u);
  EXPECT_EQ(sizes[0].as_number(), 8.0);   // Con_0 for n = 3
  EXPECT_EQ(sizes[1].as_number(), 56.0);  // 8 * 7 mobile successors
  EXPECT_EQ(sessions.session_count(), 1u);
}

TEST(HandleLineTest, SessionsShareInternedSpace) {
  SessionManager sessions;
  const std::string first = handle_line(
      sessions, "{\"id\":1,\"model\":\"mobile\",\"depth\":2}");
  const std::string second = handle_line(
      sessions, "{\"id\":2,\"model\":\"mobile\",\"depth\":2}");
  const auto doc2 = Json::parse(second);
  ASSERT_TRUE(doc2.has_value());
  // Everything request 2 touches was interned by request 1.
  EXPECT_EQ(find_path(*doc2, {"metrics", "new_states"})->as_number(), 0.0);
  EXPECT_EQ(find_path(*doc2, {"metrics", "new_views"})->as_number(), 0.0);
  EXPECT_EQ(sessions.session_count(), 1u);  // one session, two requests
}

TEST(HandleLineTest, ValenceAndDiameterAndSimilarity) {
  SessionManager sessions;
  const std::string valence = handle_line(
      sessions,
      "{\"id\":1,\"model\":\"mobile\",\"depth\":1,\"query\":\"valence\"}");
  const auto vdoc = Json::parse(valence);
  ASSERT_TRUE(vdoc.has_value()) << valence;
  EXPECT_EQ(find_path(*vdoc, {"status"})->as_string(), "ok");
  EXPECT_EQ(find_path(*vdoc, {"result", "classified"})->as_number(), 56.0);

  const std::string diameter = handle_line(
      sessions,
      "{\"id\":2,\"model\":\"mobile\",\"depth\":1,\"query\":\"diameter\"}");
  const auto ddoc = Json::parse(diameter);
  ASSERT_TRUE(ddoc.has_value()) << diameter;
  EXPECT_EQ(find_path(*ddoc, {"status"})->as_string(), "ok");
  EXPECT_TRUE(find_path(*ddoc, {"result", "diameter"}) != nullptr);
  EXPECT_TRUE(find_path(*ddoc, {"result", "connected"})->as_bool());

  const std::string similarity = handle_line(
      sessions,
      "{\"id\":3,\"model\":\"mobile\",\"depth\":1,\"query\":\"similarity\"}");
  const auto sdoc = Json::parse(similarity);
  ASSERT_TRUE(sdoc.has_value()) << similarity;
  EXPECT_EQ(find_path(*sdoc, {"status"})->as_string(), "ok");
  EXPECT_GT(find_path(*sdoc, {"result", "edges"})->as_number(), 0.0);
}

TEST(HandleLineTest, MalformedLinesBecomeErrorResponses) {
  SessionManager sessions;
  for (const char* line :
       {"this is not json", "{\"model\":\"carrier-pigeon\"}", "[1,2,3]",
        "{\"n\":99}",
        "{\"id\":1e999,\"model\":\"mobile\",\"n\":2,\"query\":\"layers\","
        "\"depth\":0}",
        "{\"id\":-1e999,\"model\":\"mobile\",\"n\":2}",
        "{\"id\":[1e999],\"model\":\"mobile\",\"n\":2}"}) {
    const std::string response = handle_line(sessions, line);
    // The response itself must parse, so no non-finite number leaks out.
    const auto doc = Json::parse(response);
    ASSERT_TRUE(doc.has_value()) << response;
    EXPECT_TRUE(find_path(*doc, {"id"})->is_null()) << line;
    EXPECT_EQ(find_path(*doc, {"status"})->as_string(), "error") << line;
    EXPECT_FALSE(find_path(*doc, {"error"})->as_string().empty());
  }
  EXPECT_EQ(sessions.session_count(), 0u);  // rejected before session spin-up
}

TEST(HandleLineTest, StateBudgetTruncates) {
  SessionManager sessions;
  const std::string response = handle_line(
      sessions,
      "{\"id\":1,\"model\":\"mobile\",\"depth\":3,\"max_states\":50}");
  const auto doc = Json::parse(response);
  ASSERT_TRUE(doc.has_value()) << response;
  EXPECT_EQ(find_path(*doc, {"status"})->as_string(), "truncated");
  EXPECT_EQ(find_path(*doc, {"truncation"})->as_string(), "state_budget");
  // Truncation yields complete levels only, never a partial level.
  const Json::Array& sizes =
      find_path(*doc, {"result", "level_sizes"})->as_array();
  EXPECT_GE(sizes.size(), 1u);
  EXPECT_LT(sizes.size(), 4u);
}

// max_states counts the states this request's exploration reaches, not the
// shared session arena: a request that needs nothing new answers the same
// after another client filled the session with a deeper exploration.
TEST(HandleLineTest, StateBudgetIgnoresEarlierRequests) {
  const std::string budgeted =
      "{\"id\":1,\"model\":\"mobile\",\"n\":4,\"depth\":1,"
      "\"max_states\":1000}";
  SessionManager sessions;
  const auto fresh = Json::parse(handle_line(sessions, budgeted));
  const auto deep = Json::parse(handle_line(
      sessions,
      "{\"id\":2,\"model\":\"mobile\",\"n\":4,\"depth\":3,"
      "\"query\":\"layers\"}"));
  const auto warm = Json::parse(handle_line(sessions, budgeted));
  ASSERT_TRUE(fresh.has_value() && deep.has_value() && warm.has_value());
  EXPECT_EQ(find_path(*deep, {"status"})->as_string(), "ok");
  EXPECT_GT(find_path(*deep, {"metrics", "states"})->as_number(), 1000.0);
  EXPECT_EQ(find_path(*fresh, {"status"})->as_string(), "ok");
  EXPECT_EQ(find_path(*warm, {"status"})->as_string(),
            find_path(*fresh, {"status"})->as_string());
  EXPECT_EQ(find_path(*warm, {"result"})->dump(),
            find_path(*fresh, {"result"})->dump());
  const Json::Array& sizes =
      find_path(*warm, {"result", "level_sizes"})->as_array();
  ASSERT_EQ(sizes.size(), 2u);
  EXPECT_EQ(sizes[0].as_number(), 16.0);
  EXPECT_EQ(sizes[1].as_number(), 208.0);
}

TEST(HandleLineTest, MetricsSnapshotEmbedsWhenAsked) {
  SessionManager sessions;
  const std::string response = handle_line(
      sessions,
      "{\"id\":1,\"model\":\"mobile\",\"depth\":1,\"metrics\":true}");
  const auto doc = Json::parse(response);
  ASSERT_TRUE(doc.has_value()) << response;
  // The spliced lacon.metrics.v2 document is itself valid JSON, and it
  // carries the timer the request's exploration recorded.
  const Json* snap = find_path(*doc, {"snapshot"});
  ASSERT_TRUE(snap != nullptr);
  EXPECT_TRUE(snap->is_object());
  const Json* schema = find_path(*snap, {"schema"});
  ASSERT_TRUE(schema != nullptr);
  EXPECT_EQ(schema->as_string(), "lacon.metrics.v2");
  EXPECT_NE(find_path(*snap, {"timers", "explore.expand_time", "buckets"}),
            nullptr);
}

// --- symmetry quotient: quotient-vs-full verdict identity -------------------

// Runs one request in a fresh session under the given LACON_SYMMETRY mode
// and returns the serialized "result" object. The result carries only
// id-free, orbit-weighted numbers, so the quotient must reproduce the full
// space byte for byte; raw arena counts live in "metrics" and are excluded.
std::string result_of(const std::string& request, bool symmetry) {
  sym::ScopedSymmetry mode(symmetry);
  SessionManager sessions;
  const std::string response = handle_line(sessions, request);
  const auto doc = Json::parse(response);
  EXPECT_TRUE(doc.has_value()) << response;
  if (!doc.has_value()) return {};
  const Json* status = doc->find("status");
  EXPECT_TRUE(status != nullptr && status->as_string() == "ok") << response;
  const Json* result = doc->find("result");
  EXPECT_NE(result, nullptr) << response;
  return result != nullptr ? result->dump() : std::string{};
}

TEST(SymmetryIdentityTest, AllQueriesMatchFullSpaceVerdicts) {
  // Of the served models only msgpass declares kFull symmetry, so it is the
  // case where the quotient genuinely folds; the others pin down that the
  // knob cannot perturb trivially-symmetric sessions.
  struct Case {
    const char* model;
    int n;
    int t;
    int depth;
  };
  const Case cases[] = {
      {"mobile", 4, 1, 2},
      {"sharedmem", 3, 1, 2},
      {"msgpass", 3, 1, 1},
      {"sync", 4, 2, 2},
  };
  for (const Case& c : cases) {
    for (const char* query :
         {"layers", "valence", "diameter", "similarity"}) {
      const std::string request =
          std::string("{\"model\":\"") + c.model +
          "\",\"n\":" + std::to_string(c.n) + ",\"t\":" + std::to_string(c.t) +
          ",\"depth\":" + std::to_string(c.depth) + ",\"query\":\"" + query +
          "\"}";
      EXPECT_EQ(result_of(request, false), result_of(request, true))
          << c.model << " " << query;
    }
  }
}

// --- answer cache ----------------------------------------------------------

Json response_of(SessionManager& sessions, const std::string& line) {
  const std::string text = handle_line(sessions, line);
  std::optional<Json> doc = Json::parse(text);
  EXPECT_TRUE(doc.has_value()) << text;
  return doc.has_value() ? std::move(*doc) : Json();
}

std::string status_of(const Json& response) {
  const Json* status = response.find("status");
  return status != nullptr ? status->as_string() : std::string{};
}

std::string result_text(const Json& response) {
  const Json* result = response.find("result");
  return result != nullptr ? result->dump() : std::string{};
}

bool replayed(const Json& response) {
  const Json* cached = find_path(response, {"metrics", "cached"});
  EXPECT_NE(cached, nullptr) << response.dump();
  return cached != nullptr && cached->as_bool();
}

// A budget this large never trips, but it makes the request budgeted: it
// neither reads nor fills the answer cache, so it recomputes its answer.
// Appended in place of a request's closing brace.
constexpr const char* kBypass = ",\"max_states\":1000000000}";

// Seeded request sequences over the four served models at n = 2 and 3, all
// four queries, depths 0–2 and horizons 0–3, sent plainly to one manager
// (whose sessions replay repeated requests) and with kBypass to a second
// (which recomputes every answer): every result must match byte for byte.
void expect_replays_equal_recomputations(bool symmetry, std::uint64_t seed) {
  constexpr int kRequestsPerInstance = 40;
  struct Instance {
    const char* model;
    int n;
    int t;
  };
  const Instance instances[] = {
      {"mobile", 2, 1},    {"mobile", 3, 1},    {"sync", 2, 1},
      {"sync", 3, 2},      {"sharedmem", 2, 1}, {"sharedmem", 3, 1},
      {"msgpass", 2, 1},   {"msgpass", 3, 1},
  };
  const char* const queries[] = {"layers", "valence", "diameter",
                                 "similarity"};
  sym::ScopedSymmetry mode(symmetry);
  std::mt19937_64 rng(seed);
  int replays = 0;
  for (const Instance& in : instances) {
    SessionManager cached, recomputed;
    for (int i = 0; i < kRequestsPerInstance; ++i) {
      const std::string query = queries[rng() % 4];
      std::string body = std::string("{\"model\":\"") + in.model +
                         "\",\"n\":" + std::to_string(in.n) +
                         ",\"t\":" + std::to_string(in.t) + ",\"query\":\"" +
                         query + "\",\"depth\":" + std::to_string(rng() % 3);
      if (query == "valence") {
        body += ",\"horizon\":" + std::to_string(rng() % 4);
      }
      const Json a = response_of(cached, body + "}");
      const Json b = response_of(recomputed, body + kBypass);
      ASSERT_EQ(status_of(a), "ok") << body;
      ASSERT_EQ(status_of(b), "ok") << body;
      EXPECT_EQ(result_text(a), result_text(b))
          << body << "} (request " << i << ")";
      EXPECT_FALSE(replayed(b)) << body;
      if (replayed(a)) ++replays;
    }
  }
  EXPECT_GT(replays, 0);
}

TEST(AnswerCacheTest, ReplaysEqualRecomputationsQuotientOff) {
  expect_replays_equal_recomputations(false, 0x616e737765720001ULL);
}

TEST(AnswerCacheTest, ReplaysEqualRecomputationsQuotientOn) {
  expect_replays_equal_recomputations(true, 0x616e737765720002ULL);
}

TEST(AnswerCacheTest, RepeatedRequestIsReplayed) {
  SessionManager sessions;
  const std::string similarity =
      "{\"id\":1,\"model\":\"mobile\",\"n\":3,\"query\":\"similarity\","
      "\"depth\":2";
  // A budgeted request's answer, complete or not, is not kept.
  EXPECT_FALSE(replayed(response_of(sessions, similarity + kBypass)));
  const Json first = response_of(sessions, similarity + "}");
  const Json again = response_of(sessions, similarity + "}");
  EXPECT_FALSE(replayed(first));
  EXPECT_TRUE(replayed(again));
  EXPECT_EQ(status_of(again), "ok");
  EXPECT_EQ(find_path(again, {"id"})->as_number(), 1.0);
  EXPECT_EQ(find_path(again, {"metrics", "new_states"})->as_number(), 0.0);
  EXPECT_EQ(result_text(again), result_text(first));

  // Only a valence answer depends on the horizon.
  EXPECT_TRUE(replayed(response_of(
      sessions,
      "{\"model\":\"mobile\",\"n\":3,\"query\":\"similarity\",\"depth\":2,"
      "\"horizon\":7}")));
  const std::string valence =
      "{\"model\":\"mobile\",\"n\":3,\"query\":\"valence\",\"depth\":2,"
      "\"horizon\":3";
  EXPECT_FALSE(replayed(response_of(sessions, valence + "}")));
  EXPECT_TRUE(replayed(response_of(sessions, valence + "}")));
  EXPECT_FALSE(replayed(response_of(
      sessions,
      "{\"model\":\"mobile\",\"n\":3,\"query\":\"valence\",\"depth\":2,"
      "\"horizon\":2}")));
  // A budgeted request does not read the cache either.
  EXPECT_FALSE(replayed(response_of(sessions, valence + kBypass)));
  EXPECT_FALSE(replayed(response_of(
      sessions, valence + ",\"budget_ms\":60000}")));
}

TEST(AnswerCacheTest, TruncatedAnswersAreNeverReplayed) {
  const std::string line =
      "{\"model\":\"mobile\",\"n\":3,\"query\":\"layers\",\"depth\":3}";
  SessionManager sessions;
  // Cut short by its own budget.
  const Json starved = response_of(
      sessions, "{\"model\":\"mobile\",\"n\":3,\"query\":\"layers\","
                "\"depth\":3,\"max_states\":50}");
  EXPECT_EQ(status_of(starved), "truncated");
  {
    // Unbudgeted, but cut short by injected faults: every guard probe
    // trips and every intern fails.
    fault::FaultScope faults(/*seed=*/1, /*rate=*/1.0);
    const Json faulted = response_of(sessions, line);
    EXPECT_EQ(status_of(faulted), "truncated");
    EXPECT_FALSE(replayed(faulted));
  }
  const Json complete = response_of(sessions, line);
  EXPECT_EQ(status_of(complete), "ok");
  EXPECT_FALSE(replayed(complete));
  SessionManager fresh;
  EXPECT_EQ(result_text(complete), result_text(response_of(fresh, line)));
  EXPECT_TRUE(replayed(response_of(sessions, line)));
}

// ROADMAP "Answers depend only on the request": at horizon 1, a mobile n=3
// session that answered the depth-1 valence query first answers the
// depth-0 one differently from a fresh session. Whatever that answer is,
// its replay must equal it and its budget-bypassed recomputation.
TEST(AnswerCacheTest, HistoryDependentValenceReplaysItsRecomputation) {
  const std::string depth0 =
      "{\"model\":\"mobile\",\"n\":3,\"query\":\"valence\",\"depth\":0,"
      "\"horizon\":1";
  SessionManager sessions;
  EXPECT_EQ(status_of(response_of(
                sessions,
                "{\"model\":\"mobile\",\"n\":3,\"query\":\"valence\","
                "\"depth\":1,\"horizon\":1}")),
            "ok");
  const Json answer = response_of(sessions, depth0 + "}");
  const Json replay = response_of(sessions, depth0 + "}");
  const Json recomputed = response_of(sessions, depth0 + kBypass);
  EXPECT_EQ(status_of(answer), "ok");
  EXPECT_FALSE(replayed(answer));
  EXPECT_TRUE(replayed(replay));
  EXPECT_FALSE(replayed(recomputed));
  EXPECT_EQ(result_text(replay), result_text(answer));
  EXPECT_EQ(result_text(recomputed), result_text(answer));
}

// --- stats query -------------------------------------------------------------

double counter_of(const Json& stats, const char* name) {
  const Json* c = find_path(stats, {"snapshot", "counters", name});
  return c != nullptr ? c->as_number() : 0.0;
}

TEST(StatsQueryTest, AnswersTheRegistryWithoutASession) {
  SessionManager sessions;
  const std::string stats = "{\"id\":\"s\",\"query\":\"stats\"}";
  const Json before = response_of(sessions, stats);
  EXPECT_EQ(sessions.session_count(), 0u);
  EXPECT_EQ(find_path(before, {"id"})->as_string(), "s");
  EXPECT_EQ(status_of(before), "ok");
  EXPECT_EQ(before.find("result"), nullptr);
  EXPECT_EQ(before.find("metrics"), nullptr);
  const Json* schema = find_path(before, {"snapshot", "schema"});
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->as_string(), "lacon.metrics.v2");

  const std::string line =
      "{\"model\":\"mobile\",\"n\":2,\"query\":\"diameter\",\"depth\":2}";
  EXPECT_FALSE(replayed(response_of(sessions, line)));
  EXPECT_TRUE(replayed(response_of(sessions, line)));
  const Json after = response_of(sessions, stats);
  EXPECT_EQ(counter_of(after, "service.answer_hits") -
                counter_of(before, "service.answer_hits"),
            1.0);
  EXPECT_EQ(counter_of(after, "service.requests") -
                counter_of(before, "service.requests"),
            2.0);
  EXPECT_EQ(sessions.session_count(), 1u);
}

// --- wire fuzzer -------------------------------------------------------------

// One seeded mutation of a request line: a bit flip, an inserted or deleted
// byte, a truncation, deep nesting, an out-of-range or non-integral number,
// or a duplicate member. Draws on raw std::mt19937_64 output only (no
// std::uniform_*_distribution, whose draws differ between standard
// libraries), so a seed replays the same lines everywhere.
void mutate(std::string& line, std::mt19937_64& rng) {
  static const char* const kNumbers[] = {
      "1e999", "-1e999", "1e308",   "3.5",  "-0",   "1e-400", "2.5e1",
      "9007199254740993", "4294967296", "-2147483649", "1e10", "0.1"};
  static const char* const kMembers[] = {
      "\"depth\":13,",  "\"n\":2,",          "\"query\":\"stats\",",
      "\"query\":7,",   "\"model\":\"sync\",", "\"horizon\":-1,",
      "\"max_states\":1e10,", "\"id\":{},",  "\"t\":null,"};
  const auto at = [&](std::size_t extra) {
    return static_cast<std::size_t>(rng() % (line.size() + extra));
  };
  switch (rng() % 8) {
    case 0:  // flip one bit
      if (!line.empty()) line[at(0)] ^= static_cast<char>(1u << (rng() % 8));
      break;
    case 1:  // insert a byte
      line.insert(at(1), 1, static_cast<char>(rng() & 0xff));
      break;
    case 2:  // delete a byte
      if (!line.empty()) line.erase(at(0), 1);
      break;
    case 3:  // truncate
      line.resize(at(1));
      break;
    case 4: {  // nest the whole line in arrays, past the parser's cap or not
      const std::size_t depth = 1 + rng() % 100;
      line = std::string(depth, '[') + line + std::string(depth, ']');
      break;
    }
    case 5: {  // a deeply nested extra member
      const std::size_t depth = 1 + rng() % 100;
      const std::size_t brace = line.find('{');
      if (brace != std::string::npos) {
        line.insert(brace + 1, "\"x\":" + std::string(depth, '[') +
                                   std::string(depth, ']') + ",");
      }
      break;
    }
    case 6: {  // replace the number found at or after a random byte
      const std::size_t from = line.find_first_of("-0123456789", at(1));
      if (from != std::string::npos) {
        const std::size_t end = line.find_first_not_of("-+.eE0123456789", from);
        line.replace(from, end == std::string::npos ? end : end - from,
                     kNumbers[rng() % std::size(kNumbers)]);
      }
      break;
    }
    default: {  // a duplicate member ahead of the original
      const std::size_t brace = line.find('{');
      if (brace != std::string::npos) {
        line.insert(brace + 1, kMembers[rng() % std::size(kMembers)]);
      }
      break;
    }
  }
}

// Every mutated line yields a document or nullopt with an error from
// Json::parse, then true, or false with an error, from parse_request. A
// line refused at either stage goes through handle_line and must come back
// as one error response. A line that still parses as a request is not
// executed, so no mutation can start an analysis (an unbudgeted n=8
// depth-12 request has no ceiling).
TEST(WireFuzzTest, MutatedRequestLinesParseOrFailCleanly) {
  const std::string corpus[] = {
      "{\"id\":1,\"model\":\"mobile\",\"n\":3,\"query\":\"layers\","
      "\"depth\":2}",
      "{\"id\":\"q7\",\"model\":\"sync\",\"n\":4,\"t\":2,\"query\":"
      "\"valence\",\"depth\":3,\"horizon\":5,\"budget_ms\":250,"
      "\"max_states\":1000,\"metrics\":true}",
      "{\"model\":\"msgpass\",\"n\":3,\"query\":\"similarity\",\"depth\":1}",
      "{\"id\":[1,{\"k\":null}],\"model\":\"sharedmem\",\"query\":"
      "\"diameter\",\"depth\":0}",
      "{\"id\":7,\"query\":\"stats\"}",
      "{\"query\":\"stats\"}",
  };
  constexpr int kLines = 20'000;
  std::mt19937_64 rng(0x6c61636f6e726431ULL);
  SessionManager sessions;
  int accepted = 0, refused = 0;
  for (int i = 0; i < kLines; ++i) {
    std::string line = corpus[rng() % std::size(corpus)];
    for (int edits = 1 + static_cast<int>(rng() % 4); edits > 0; --edits) {
      mutate(line, rng);
    }
    std::string error;
    const std::optional<Json> doc = Json::parse(line, &error);
    if (doc.has_value()) {
      Request req;
      if (parse_request(*doc, &req, &error)) {
        ++accepted;
        continue;
      }
    }
    ASSERT_FALSE(error.empty()) << line;
    ++refused;
    const std::optional<Json> resp = Json::parse(handle_line(sessions, line));
    ASSERT_TRUE(resp.has_value()) << line;
    EXPECT_EQ(status_of(*resp), "error") << line;
    const Json* message = resp->find("error");
    ASSERT_NE(message, nullptr) << line;
    EXPECT_FALSE(message->as_string().empty()) << line;
  }
  EXPECT_EQ(sessions.session_count(), 0u);
  EXPECT_GT(accepted, 0);
  EXPECT_GT(refused, 0);
}

// --- Server (socket) -------------------------------------------------------

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    socket_path_ = "/tmp/laconrd_test_" + std::to_string(::getpid()) + "_" +
                   ::testing::UnitTest::GetInstance()
                       ->current_test_info()
                       ->name() +
                   ".sock";
    server_ = std::make_unique<Server>(ServerOptions{.socket_path = socket_path_});
    std::string error;
    ASSERT_TRUE(server_->start(&error)) << error;
  }
  void TearDown() override { server_->stop(); }

  std::string roundtrip(const std::string& line) {
    std::string response, error;
    EXPECT_TRUE(Server::request(socket_path_, line, &response, &error))
        << error;
    return response;
  }

  std::string socket_path_;
  std::unique_ptr<Server> server_;
};

TEST_F(ServerTest, ServesARequest) {
  const std::string response =
      roundtrip("{\"id\":\"smoke\",\"model\":\"mobile\",\"depth\":1}");
  const auto doc = Json::parse(response);
  ASSERT_TRUE(doc.has_value()) << response;
  EXPECT_EQ(find_path(*doc, {"id"})->as_string(), "smoke");
  EXPECT_EQ(find_path(*doc, {"status"})->as_string(), "ok");
}

TEST_F(ServerTest, StopIsIdempotentAndUnlinksSocket) {
  ASSERT_TRUE(server_->running());
  server_->stop();
  server_->stop();
  EXPECT_FALSE(server_->running());
  std::string response, error;
  EXPECT_FALSE(Server::request(socket_path_, "{}", &response, &error));
}

// The satellite-6 smoke: two concurrent clients against one session, one
// starved by a tiny wall-clock budget. The starved request must report its
// TruncationReason; the unbudgeted one must complete. Run under TSan this
// also soaks the session sharing (arena + layer cache + memo) across the
// two connection threads.
TEST_F(ServerTest, ConcurrentBudgetedAndUnbudgetedClients) {
  std::string starved, unbudgeted;
  std::thread starved_client([&] {
    std::string error;
    ASSERT_TRUE(Server::request(
        socket_path_,
        "{\"id\":\"starved\",\"model\":\"sharedmem\",\"n\":3,\"depth\":4,"
        "\"budget_ms\":1}",
        &starved, &error))
        << error;
  });
  std::thread free_client([&] {
    std::string error;
    ASSERT_TRUE(Server::request(
        socket_path_,
        "{\"id\":\"free\",\"model\":\"sharedmem\",\"n\":3,\"depth\":2}",
        &unbudgeted, &error))
        << error;
  });
  starved_client.join();
  free_client.join();

  const auto sdoc = Json::parse(starved);
  ASSERT_TRUE(sdoc.has_value()) << starved;
  EXPECT_EQ(find_path(*sdoc, {"status"})->as_string(), "truncated");
  EXPECT_EQ(find_path(*sdoc, {"truncation"})->as_string(), "deadline");

  const auto fdoc = Json::parse(unbudgeted);
  ASSERT_TRUE(fdoc.has_value()) << unbudgeted;
  EXPECT_EQ(find_path(*fdoc, {"status"})->as_string(), "ok");

  // Both rode the same (sharedmem, 3, 1) session.
  EXPECT_EQ(server_->sessions().session_count(), 1u);
}

// The daemon's only concurrency: eight connections write one cold session
// at once with all four query kinds, so the arenas, the layer cache, the
// valence memo and the fingerprint-row memo take concurrent inserts. Every
// answer must equal the same request answered alone by a fresh session.
TEST_F(ServerTest, ManyConcurrentClientsShareOneSession) {
  constexpr int kClients = 8;
  const char* const kQueries[] = {"layers", "valence", "diameter",
                                  "similarity"};
  const auto request = [&kQueries](int i) {
    return "{\"id\":" + std::to_string(i) +
           ",\"model\":\"mobile\",\"depth\":2,\"query\":\"" +
           kQueries[i % 4] + "\"}";
  };
  std::vector<std::thread> clients;
  std::vector<std::string> responses(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([this, i, &request, &responses] {
      std::string error;
      ASSERT_TRUE(Server::request(socket_path_, request(i),
                                  &responses[static_cast<std::size_t>(i)],
                                  &error))
          << error;
    });
  }
  for (std::thread& t : clients) t.join();
  for (int i = 0; i < kClients; ++i) {
    const auto doc = Json::parse(responses[static_cast<std::size_t>(i)]);
    ASSERT_TRUE(doc.has_value()) << responses[static_cast<std::size_t>(i)];
    EXPECT_EQ(find_path(*doc, {"status"})->as_string(), "ok");
    EXPECT_EQ(find_path(*doc, {"id"})->as_number(), static_cast<double>(i));
    SessionManager alone;
    const auto reference = Json::parse(handle_line(alone, request(i)));
    ASSERT_TRUE(reference.has_value());
    EXPECT_EQ(find_path(*doc, {"result"})->dump(),
              find_path(*reference, {"result"})->dump())
        << kQueries[i % 4];
    if (i % 4 == 1) {  // valence: every depth-2 state of mobile n=3
      EXPECT_EQ(find_path(*doc, {"result", "classified"})->as_number(), 392.0);
    }
  }
  EXPECT_EQ(server_->sessions().session_count(), 1u);
}

// --- fault posture (robustness PR): shutdown, shedding, timeouts -----------

// A raw connected client socket with no protocol behavior: the pathological
// peer the fault posture is written against.
int raw_connect(const std::string& socket_path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::snprintf(addr.sun_path, sizeof addr.sun_path, "%s",
                socket_path.c_str());
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// Reads until the peer closes (or 5 s pass); returns everything received.
std::string read_until_closed(int fd) {
  std::string out;
  char buf[4096];
  struct pollfd pfd{fd, POLLIN, 0};
  for (;;) {
    const int ready = ::poll(&pfd, 1, 5000);
    if (ready <= 0) break;
    const ssize_t got = ::read(fd, buf, sizeof buf);
    if (got <= 0) break;
    out.append(buf, static_cast<std::size_t>(got));
  }
  return out;
}

// Satellite (a): the shutdown hang. A client that connects and then says
// nothing used to park a connection thread in a blocking read forever;
// stop() must now come back well under a second.
TEST_F(ServerTest, StopReturnsPromptlyWithIdleClient) {
  const int fd = raw_connect(socket_path_);
  ASSERT_GE(fd, 0);
  // Let the accept loop register the connection before stopping.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  const auto t0 = std::chrono::steady_clock::now();
  server_->stop();
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            1000);
  ::close(fd);
}

// Untrusted wire input: a line that outgrows max_line_bytes before its
// newline is answered with a typed error and its connection closed, while
// other connections are still served.
TEST_F(ServerTest, OverlongLineIsRefusedAndItsConnectionClosed) {
  server_->stop();
  server_ = std::make_unique<Server>(
      ServerOptions{.socket_path = socket_path_, .max_line_bytes = 256});
  std::string error;
  ASSERT_TRUE(server_->start(&error)) << error;
  const int fd = raw_connect(socket_path_);
  ASSERT_GE(fd, 0);
  const std::string line(1024, 'x');  // no newline
  ASSERT_EQ(::send(fd, line.data(), line.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(line.size()));
  EXPECT_EQ(read_until_closed(fd),
            "{\"id\":null,\"status\":\"error\",\"error\":\"request line "
            "too long\"}\n");
  // Closed by the daemon, not timed out: end of stream (or a reset, should
  // the daemon have closed with bytes of ours unread) without waiting.
  char byte;
  const ssize_t tail = ::recv(fd, &byte, 1, MSG_DONTWAIT);
  EXPECT_TRUE(tail == 0 || (tail < 0 && errno == ECONNRESET))
      << "tail " << tail << " errno " << errno;
  ::close(fd);

  const auto doc =
      Json::parse(roundtrip("{\"id\":2,\"model\":\"mobile\",\"depth\":1}"));
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(find_path(*doc, {"status"})->as_string(), "ok");
}

// Three request lines in one write arrive in one read, so the server runs
// them as one batch: three responses, in request order, on the connection.
// The first line is CRLF-terminated, which covers the '\r' strip.
TEST_F(ServerTest, PipelinedRequestsOnOneConnection) {
  auto& pipelined = runtime::Stats::global().counter("service.pipelined_lines");
  const std::uint64_t before = pipelined.value();
  const int fd = raw_connect(socket_path_);
  ASSERT_GE(fd, 0);
  const std::string batch =
      "{\"id\":1,\"model\":\"mobile\",\"depth\":1}\r\n"
      "{\"id\":2,\"model\":\"sync\",\"n\":3,\"t\":1,\"depth\":1}\n"
      "{\"id\":3,\"model\":\"mobile\",\"depth\":2,\"query\":\"valence\"}\n";
  ASSERT_EQ(::send(fd, batch.data(), batch.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(batch.size()));
  std::string out;
  char buf[4096];
  while (std::count(out.begin(), out.end(), '\n') < 3) {
    pollfd pfd{fd, POLLIN, 0};
    ASSERT_GT(::poll(&pfd, 1, 30'000), 0) << out;
    const ssize_t got = ::read(fd, buf, sizeof buf);
    ASSERT_GT(got, 0) << out;
    out.append(buf, static_cast<std::size_t>(got));
  }
  ::close(fd);
  EXPECT_EQ(pipelined.value(), before + 3);

  std::vector<std::string> lines;
  for (std::size_t start = 0, nl; (nl = out.find('\n', start)) !=
                                  std::string::npos;
       start = nl + 1) {
    lines.push_back(out.substr(start, nl - start));
  }
  ASSERT_EQ(lines.size(), 3u) << out;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const auto doc = Json::parse(lines[i]);
    ASSERT_TRUE(doc.has_value()) << lines[i];
    EXPECT_EQ(find_path(*doc, {"id"})->as_number(), static_cast<double>(i + 1));
    EXPECT_EQ(find_path(*doc, {"status"})->as_string(), "ok");
  }
}

TEST(ServerFaultTest, IdleConnectionIsToldAndDropped) {
  const std::string path =
      "/tmp/laconrd_idle_" + std::to_string(::getpid()) + ".sock";
  Server server(
      ServerOptions{.socket_path = path, .idle_timeout_ms = 200});
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  const int fd = raw_connect(path);
  ASSERT_GE(fd, 0);
  const std::string out = read_until_closed(fd);
  ::close(fd);
  EXPECT_NE(out.find("idle timeout"), std::string::npos) << out;
  server.stop();
}

TEST(ServerFaultTest, OverloadShedsWithJsonError) {
  const std::string path =
      "/tmp/laconrd_shed_" + std::to_string(::getpid()) + ".sock";
  Server server(
      ServerOptions{.socket_path = path, .max_connections = 1});
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  // Occupy the single slot and prove it is registered by completing one
  // round trip on it.
  const int held = raw_connect(path);
  ASSERT_GE(held, 0);
  const std::string probe = "{\"id\":0,\"model\":\"mobile\",\"depth\":0}\n";
  ASSERT_EQ(::send(held, probe.data(), probe.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(probe.size()));
  char buf[4096];
  ASSERT_GT(::read(held, buf, sizeof buf), 0);

  // The next connection must be shed with a parseable error, not queued.
  std::string response;
  ASSERT_TRUE(Server::request(path, "{\"id\":1}", &response, &error, 5000))
      << error;
  const auto doc = Json::parse(response);
  ASSERT_TRUE(doc.has_value()) << response;
  EXPECT_EQ(find_path(*doc, {"status"})->as_string(), "error");
  EXPECT_EQ(find_path(*doc, {"error"})->as_string(), "overloaded");

  ::close(held);
  server.stop();
}

// Satellite (c): a connect that succeeds against a listener that never
// accepts or answers must fail with ETIMEDOUT after the deadline, not hang.
TEST(ServerFaultTest, RequestTimesOutAgainstSilentServer) {
  const std::string path =
      "/tmp/laconrd_silent_" + std::to_string(::getpid()) + ".sock";
  ::unlink(path.c_str());
  const int listener = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(listener, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::snprintf(addr.sun_path, sizeof addr.sun_path, "%s", path.c_str());
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0);
  ASSERT_EQ(::listen(listener, 1), 0);  // ...and never accept

  std::string response, error;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(Server::request(path, "{\"id\":1}", &response, &error, 300));
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_NE(error.find(std::strerror(ETIMEDOUT)), std::string::npos) << error;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            3000);
  ::close(listener);
  ::unlink(path.c_str());
}

// The durability loop at the protocol level (no sockets): every handled
// request commits to the WAL before responding, so a second manager over
// the same store dir — with no snapshot ever saved — re-serves the session
// without interning anything new.
TEST(ProtocolWalTest, HandledRequestsAreDurableWithoutSnapshotSave) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      ("lacon_service_wal_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  ::setenv("LACON_WAL", "on", 1);
  ::setenv("LACON_STORE_DIR", dir.c_str(), 1);

  const std::string query =
      "{\"id\":1,\"model\":\"mobile\",\"n\":3,\"depth\":2,"
      "\"query\":\"valence\"}";
  std::string first;
  {
    SessionManager sessions;
    first = handle_line(sessions, query);
    // The manager dies as a kill -9 would leave it: nothing is saved.
  }
  SessionManager recovered;
  const std::string second = handle_line(recovered, query);

  const auto doc1 = Json::parse(first);
  const auto doc2 = Json::parse(second);
  ASSERT_TRUE(doc1.has_value() && doc2.has_value());
  EXPECT_EQ(find_path(*doc1, {"status"})->as_string(), "ok");
  EXPECT_EQ(find_path(*doc2, {"result"})->dump(),
            find_path(*doc1, {"result"})->dump());
  EXPECT_EQ(find_path(*doc2, {"metrics", "new_states"})->as_number(), 0.0);
  EXPECT_EQ(find_path(*doc2, {"metrics", "new_views"})->as_number(), 0.0);

  ::unsetenv("LACON_WAL");
  ::unsetenv("LACON_STORE_DIR");
  std::error_code ec;
  fs::remove_all(dir, ec);
}

// A session log that fails at open — a foreign magic, or a format version
// this build does not know — is quarantined to <wal>.bad. The request is
// still answered, as a cold session answers it, with a notice naming the
// quarantined file, and the session starts a fresh log: a restarted
// manager answers the same request without interning anything.
TEST(ProtocolWalTest, UnreadableWalIsQuarantinedAndReplaced) {
  namespace fs = std::filesystem;
  const std::string query =
      "{\"id\":1,\"model\":\"mobile\",\"n\":3,\"depth\":2,"
      "\"query\":\"valence\"}";
  SessionManager cold;
  const auto reference = Json::parse(handle_line(cold, query));
  ASSERT_TRUE(reference.has_value());

  const std::pair<const char*, std::size_t> corruptions[] = {
      {"bad_magic", 0},    // the magic's first byte
      {"bad_version", 8},  // the u32 version right after the magic
  };
  for (const auto& [label, offset] : corruptions) {
    SCOPED_TRACE(label);
    const fs::path dir = fs::temp_directory_path() /
                         ("lacon_service_quarantine_" +
                          std::to_string(::getpid()) + "_" + label);
    fs::create_directories(dir);
    ::setenv("LACON_WAL", "on", 1);
    ::setenv("LACON_STORE_DIR", dir.c_str(), 1);
    std::string wal;
    {
      SessionManager writer;
      handle_line(writer, query);
      wal = store::wal_path(writer.session(ModelKind::kMobile, 3, 1).model());
    }
    ASSERT_TRUE(fs::exists(wal));
    {
      std::FILE* f = std::fopen(wal.c_str(), "r+b");
      ASSERT_NE(f, nullptr);
      ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
      ASSERT_EQ(std::fputc(0x7f, f), 0x7f);
      std::fclose(f);
    }

    SessionManager sessions;
    const auto doc = Json::parse(handle_line(sessions, query));
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(find_path(*doc, {"status"})->as_string(), "ok");
    EXPECT_EQ(find_path(*doc, {"result"})->dump(),
              find_path(*reference, {"result"})->dump());
    const Json* notice = doc->find("notice");
    ASSERT_NE(notice, nullptr);
    EXPECT_NE(notice->as_string().find(wal + ".bad"), std::string::npos)
        << notice->as_string();
    EXPECT_TRUE(fs::exists(wal + ".bad"));

    SessionManager restarted;
    const auto again = Json::parse(handle_line(restarted, query));
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(find_path(*again, {"result"})->dump(),
              find_path(*reference, {"result"})->dump());
    EXPECT_EQ(find_path(*again, {"metrics", "new_states"})->as_number(), 0.0);
    EXPECT_EQ(again->find("notice"), nullptr);

    ::unsetenv("LACON_WAL");
    ::unsetenv("LACON_STORE_DIR");
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
}

// --- pipelining (handle_batch, PROTOCOL.md "Pipelining") -------------------

// A batch executes in request order and answers in request order, malformed
// lines included — the error response occupies the bad line's slot instead
// of shifting later responses.
TEST(PipelineTest, BatchAnswersInRequestOrder) {
  SessionManager sessions;
  const std::vector<std::string> lines = {
      "{\"id\":1,\"model\":\"mobile\",\"n\":3,\"depth\":1}",
      "{\"id\":2,\"model\":\"sync\",\"n\":3,\"t\":1,\"depth\":1}",
      "this is not json",
      "{\"id\":4,\"model\":\"mobile\",\"n\":3,\"depth\":2,"
      "\"query\":\"valence\"}",
  };
  const std::vector<std::string> responses = handle_batch(sessions, lines);
  ASSERT_EQ(responses.size(), lines.size());

  const auto r1 = Json::parse(responses[0]);
  const auto r2 = Json::parse(responses[1]);
  const auto r3 = Json::parse(responses[2]);
  const auto r4 = Json::parse(responses[3]);
  ASSERT_TRUE(r1 && r2 && r3 && r4);
  EXPECT_EQ(find_path(*r1, {"id"})->as_number(), 1.0);
  EXPECT_EQ(find_path(*r2, {"id"})->as_number(), 2.0);
  EXPECT_EQ(find_path(*r3, {"status"})->as_string(), "error");
  EXPECT_TRUE(find_path(*r3, {"id"})->is_null());
  EXPECT_EQ(find_path(*r4, {"id"})->as_number(), 4.0);
  EXPECT_EQ(find_path(*r4, {"status"})->as_string(), "ok");

  // Requests 1 and 4 shared one session: 4 warm-started on 1's exploration.
  EXPECT_EQ(sessions.session_count(), 2u);
}

// Group commit across a batch: the whole batch's work reaches the WAL in
// ONE commit round per touched session (not one fsync per request), and a
// manager recovered from that WAL — no snapshot was ever saved — re-serves
// every request without interning anything new. This is the PR-8 contract
// ("response on the wire => work survives kill -9") carried over to
// pipelined batches.
TEST(ProtocolWalTest, PipelinedBatchSharesOneCommitAndIsDurable) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      ("lacon_service_batch_wal_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  ::setenv("LACON_WAL", "on", 1);
  ::setenv("LACON_STORE_DIR", dir.c_str(), 1);

  const std::vector<std::string> lines = {
      "{\"id\":1,\"model\":\"mobile\",\"n\":3,\"depth\":1}",
      "{\"id\":2,\"model\":\"mobile\",\"n\":3,\"depth\":2,"
      "\"query\":\"valence\"}",
      "{\"id\":3,\"model\":\"mobile\",\"n\":3,\"depth\":2,"
      "\"query\":\"valence\",\"horizon\":4}",
  };
  auto& commits = runtime::Stats::global().counter("wal.group_commits");
  const std::uint64_t commits_before = commits.value();
  std::vector<std::string> first;
  {
    SessionManager sessions;
    first = handle_batch(sessions, lines);
    // The manager dies as a kill -9 would leave it: nothing is saved.
  }
  // One touched session => one group-committed append for all three
  // requests (two distinct engine horizons riding the same round).
  EXPECT_EQ(commits.value(), commits_before + 1);

  SessionManager recovered;
  const std::vector<std::string> second = handle_batch(recovered, lines);
  ASSERT_EQ(first.size(), lines.size());
  ASSERT_EQ(second.size(), lines.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const auto doc1 = Json::parse(first[i]);
    const auto doc2 = Json::parse(second[i]);
    ASSERT_TRUE(doc1.has_value() && doc2.has_value());
    EXPECT_EQ(find_path(*doc1, {"status"})->as_string(), "ok");
    EXPECT_EQ(find_path(*doc2, {"result"})->dump(),
              find_path(*doc1, {"result"})->dump())
        << "request " << i;
    EXPECT_EQ(find_path(*doc2, {"metrics", "new_states"})->as_number(), 0.0);
    EXPECT_EQ(find_path(*doc2, {"metrics", "new_views"})->as_number(), 0.0);
  }

  ::unsetenv("LACON_WAL");
  ::unsetenv("LACON_STORE_DIR");
  std::error_code ec;
  fs::remove_all(dir, ec);
}

// What a session's caches hold that a recovery must bring back: the layer
// cache, every published fingerprint row and the memo of the engine at
// `horizon`.
struct CacheExports {
  std::vector<std::pair<StateId, std::vector<StateId>>> layers;
  std::vector<std::vector<std::uint64_t>> rows;  // by state id
  std::vector<std::tuple<StateId, std::int32_t, bool, bool, bool, bool>> memo;
};

CacheExports export_caches(Session& session, int horizon) {
  CacheExports out;
  LayeredModel& model = session.model();
  out.layers = model.export_layer_cache();
  out.rows.resize(model.num_states());
  for (std::size_t id = 0; id < out.rows.size(); ++id) {
    if (const std::uint64_t* row =
            model.cached_fingerprint_row(static_cast<StateId>(id))) {
      out.rows[id].assign(row, row + model.n());
    }
  }
  for (const ValenceEngine::MemoEntry& e :
       session.engine(horizon).export_memo()) {
    out.memo.emplace_back(e.x, e.lookahead, e.v0, e.v1, e.exact, e.deep);
  }
  return out;
}

// Four clients write one WAL-on session at once through handle_batch:
// `layers` at increasing depths plus warm valence and similarity reads at
// horizons 2 and 3, so commit rounds coalesce and carry layer, memo and
// fingerprint-row deltas of two engines. The manager then dies without
// saving, which leaves on disk what a SIGKILL would (every response
// followed its fsync). Recovery opens at horizon 2, whose engine takes the
// horizon-2 memo blocks back: the recovered session must hold the same
// caches and that same memo, and answer every request alike, interning
// nothing.
TEST(ProtocolWalTest, ConcurrentClientsLoseNothingOnRecovery) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      ("lacon_service_concurrent_wal_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  ::setenv("LACON_WAL", "on", 1);
  ::setenv("LACON_STORE_DIR", dir.c_str(), 1);

  constexpr int kClients = 4;
  const auto request = [](const char* query, int depth, int horizon) {
    return std::string("{\"id\":0,\"model\":\"mobile\",\"n\":3,\"query\":\"") +
           query + "\",\"depth\":" + std::to_string(depth) +
           ",\"horizon\":" + std::to_string(horizon) + "}";
  };
  std::vector<std::vector<std::string>> sent(kClients);
  std::vector<std::vector<std::string>> answers(kClients);
  CacheExports live;
  {
    SessionManager sessions;
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        const int horizon = 2 + c % 2;  // two engines share the rounds
        for (int depth = 1; depth <= 4; ++depth) {
          const std::vector<std::string> batch = {
              request("layers", depth, horizon),
              request("valence", depth - 1, horizon),
              request("similarity", depth - 1, horizon)};
          for (std::string& r : handle_batch(sessions, batch)) {
            answers[static_cast<std::size_t>(c)].push_back(std::move(r));
          }
          sent[static_cast<std::size_t>(c)].insert(
              sent[static_cast<std::size_t>(c)].end(), batch.begin(),
              batch.end());
        }
      });
    }
    for (std::thread& t : clients) t.join();
    live = export_caches(sessions.session(ModelKind::kMobile, 3, 1), 2);
    ASSERT_FALSE(live.memo.empty());
    // The manager dies as a kill -9 would leave it: nothing is saved.
  }

  SessionManager recovered;
  // A depth-0 request recovers the session, importing the horizon-2 memo,
  // and computes no cache entry.
  handle_line(recovered, request("layers", 0, 2));
  const CacheExports back =
      export_caches(recovered.session(ModelKind::kMobile, 3, 1), 2);
  EXPECT_TRUE(back.layers == live.layers);
  EXPECT_TRUE(back.rows == live.rows);
  EXPECT_TRUE(back.memo == live.memo);

  for (int c = 0; c < kClients; ++c) {
    for (std::size_t i = 0; i < sent[static_cast<std::size_t>(c)].size();
         ++i) {
      const std::string& line = sent[static_cast<std::size_t>(c)][i];
      const auto before =
          Json::parse(answers[static_cast<std::size_t>(c)][i]);
      const auto after = Json::parse(handle_line(recovered, line));
      ASSERT_TRUE(before.has_value() && after.has_value()) << line;
      EXPECT_EQ(find_path(*before, {"status"})->as_string(), "ok") << line;
      EXPECT_EQ(find_path(*after, {"result"})->dump(),
                find_path(*before, {"result"})->dump())
          << line;
      EXPECT_EQ(find_path(*after, {"metrics", "new_states"})->as_number(),
                0.0)
          << line;
    }
  }

  ::unsetenv("LACON_WAL");
  ::unsetenv("LACON_STORE_DIR");
  std::error_code ec;
  fs::remove_all(dir, ec);
}

// A snapshot whose kLemmas count was raised by 2^61, the header checksum
// re-sealed, passes a size check of the form bytes == count * 24 because
// the product wraps. Recovery must refuse the file and start the session
// cold, not throw out of the first request to it.
TEST(ProtocolWalTest, WrappedLemmaCountFallsBackToColdStart) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      ("lacon_service_lemma_count_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  ::setenv("LACON_WAL", "on", 1);
  ::setenv("LACON_STORE_DIR", dir.c_str(), 1);
  {
    auto rule = min_after_round(2);
    auto model = make_model(ModelKind::kMobile, 3, 1, *rule);
    reachable_by_depth(*model, 1);
    const std::string file = store::snapshot_path(*model);
    ASSERT_TRUE(store::save(*model, file).ok());
    const std::vector<char> bytes = store_bytes::with_lemma_section(
        store_bytes::read_file(file), store_bytes::lemma_facts(3),
        3 + (std::uint64_t{1} << 61));
    store_bytes::write_file(file, bytes.data(), bytes.size());
  }
  const std::string line =
      "{\"id\":1,\"model\":\"mobile\",\"n\":3,\"query\":\"layers\","
      "\"depth\":1}";
  SessionManager sessions;
  std::string response;
  ASSERT_NO_THROW(response = handle_line(sessions, line));
  const auto doc = Json::parse(response);
  ASSERT_TRUE(doc.has_value()) << response;
  EXPECT_EQ(find_path(*doc, {"status"})->as_string(), "ok");
  // Cold: the refused snapshot contributed no state.
  EXPECT_EQ(find_path(*doc, {"metrics", "new_states"})->as_number(),
            find_path(*doc, {"metrics", "states"})->as_number());
  EXPECT_GT(find_path(*doc, {"metrics", "new_states"})->as_number(), 0.0);

  ::unsetenv("LACON_WAL");
  ::unsetenv("LACON_STORE_DIR");
  std::error_code ec;
  fs::remove_all(dir, ec);
}

// Writes a depth-1 mobile n=3 snapshot into the store dir, and a log over
// it holding the depth-2 exploration; returns their paths.
std::pair<std::string, std::string> write_snapshot_and_log() {
  auto rule = min_after_round(2);
  auto model = make_model(ModelKind::kMobile, 3, 1, *rule);
  reachable_by_depth(*model, 1);
  const std::string snap = store::snapshot_path(*model);
  const std::string wal = store::wal_path(*model);
  EXPECT_TRUE(store::save(*model, snap).ok());
  store::Wal log;
  EXPECT_TRUE(log.open(*model, wal).ok());
  EXPECT_TRUE(log.replay(*model, nullptr).ok());
  reachable_by_depth(*model, 2);
  EXPECT_TRUE(log.append(*model, {}).ok());
  return {snap, wal};
}

const char* const kDepth2Layers =
    "{\"id\":1,\"model\":\"mobile\",\"n\":3,\"query\":\"layers\","
    "\"depth\":2}";

// A snapshot whose state 0 names view 2^30, its checksums re-sealed, with
// a log over it. Recovery refuses the snapshot and restores nothing; the
// log can only replay over that snapshot, so both are quarantined to .bad,
// the notice names them, and the session answers cold and starts a fresh
// log, which a restarted manager replays.
TEST(ProtocolWalTest, RefusedSnapshotIsQuarantinedWithItsLog) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      ("lacon_service_refused_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  ::setenv("LACON_WAL", "on", 1);
  ::setenv("LACON_STORE_DIR", dir.c_str(), 1);
  const auto [snap, wal] = write_snapshot_and_log();
  {
    std::vector<char> bytes = store_bytes::read_file(snap);
    const std::size_t state0 =
        store_bytes::section_at(bytes, store::SectionKind::kStates);
    const auto env = store_bytes::get<std::uint64_t>(bytes, state0);
    store_bytes::put<std::int32_t>(bytes, state0 + 8 + 8 * env, 1 << 30);
    store_bytes::reseal_snapshot(bytes, /*digests=*/false);
    store_bytes::write_file(snap, bytes.data(), bytes.size());
  }
  SessionManager sessions;
  const auto doc = Json::parse(handle_line(sessions, kDepth2Layers));
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(find_path(*doc, {"status"})->as_string(), "ok");
  // Cold: every view and state the answer holds is new.
  EXPECT_EQ(find_path(*doc, {"metrics", "new_views"})->as_number(),
            find_path(*doc, {"metrics", "views"})->as_number());
  EXPECT_EQ(find_path(*doc, {"metrics", "new_states"})->as_number(),
            find_path(*doc, {"metrics", "states"})->as_number());
  const Json* notice = doc->find("notice");
  ASSERT_NE(notice, nullptr);
  EXPECT_NE(notice->as_string().find(snap + ".bad"), std::string::npos)
      << notice->as_string();
  EXPECT_NE(notice->as_string().find(wal + ".bad"), std::string::npos)
      << notice->as_string();
  EXPECT_TRUE(fs::exists(snap + ".bad"));
  EXPECT_TRUE(fs::exists(wal + ".bad"));

  SessionManager restarted;
  const auto again = Json::parse(handle_line(restarted, kDepth2Layers));
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(find_path(*again, {"result"})->dump(),
            find_path(*doc, {"result"})->dump());
  EXPECT_EQ(find_path(*again, {"metrics", "new_states"})->as_number(), 0.0);
  EXPECT_EQ(again->find("notice"), nullptr);

  ::unsetenv("LACON_WAL");
  ::unsetenv("LACON_STORE_DIR");
  std::error_code ec;
  fs::remove_all(dir, ec);
}

// A snapshot that exists but cannot be loaded for a reason other than its
// bytes — here an allocation failure on its first record — is not the base
// its log replays over either. It is quarantined with its log, both files
// byte for byte as they were, instead of replay cutting the log.
TEST(ProtocolWalTest, UnloadableSnapshotKeepsItsLog) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      ("lacon_service_unloadable_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  ::setenv("LACON_WAL", "on", 1);
  ::setenv("LACON_STORE_DIR", dir.c_str(), 1);
  const auto [snap, wal] = write_snapshot_and_log();
  const auto snap_bytes = fs::file_size(snap);
  const auto wal_bytes = fs::file_size(wal);
  std::optional<Json> doc;
  {
    // Every arena intern fails, the load's first restore included.
    fault::FaultScope faults(/*seed=*/1, /*rate=*/1.0);
    SessionManager sessions;
    doc = Json::parse(handle_line(sessions, kDepth2Layers));
  }
  ASSERT_TRUE(doc.has_value());
  const Json* notice = doc->find("notice");
  ASSERT_NE(notice, nullptr);
  EXPECT_NE(notice->as_string().find(snap + ".bad"), std::string::npos)
      << notice->as_string();
  EXPECT_NE(notice->as_string().find(wal + ".bad"), std::string::npos)
      << notice->as_string();
  ASSERT_TRUE(fs::exists(snap + ".bad"));
  ASSERT_TRUE(fs::exists(wal + ".bad"));
  EXPECT_EQ(fs::file_size(snap + ".bad"), snap_bytes);
  EXPECT_EQ(fs::file_size(wal + ".bad"), wal_bytes);

  ::unsetenv("LACON_WAL");
  ::unsetenv("LACON_STORE_DIR");
  std::error_code ec;
  fs::remove_all(dir, ec);
}

}  // namespace
}  // namespace lacon::service
