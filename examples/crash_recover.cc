// crash_recover — kill -9 a WAL-enabled daemon mid-workload and prove the
// restart serves byte-identical results with zero re-interning.
//
// The durability contract under test (DESIGN.md §14): with LACON_WAL=on,
// every response on the wire implies its session deltas are fsync'd in the
// write-ahead log, so a SIGKILL at ANY point afterwards — including with a
// request in flight — recovers the session to its exact pre-crash content.
//
// Three phases, all forked from a single-threaded parent (the parent never
// starts a thread, so the harness is fork-safe under TSan; the children are
// free to multi-thread after the fork):
//
//   A  reference daemon, persistence off: run the workload, keep responses.
//   B  crash daemon, LACON_WAL=on over a fresh store dir: same workload
//      (responses must already match A), then SIGKILL it with at least four
//      forked clients concurrently in flight — same-session requests at
//      different horizons committing under one store lock, plus a larger
//      session mid-interning — so the kill lands inside an append+fsync,
//      not a quiet daemon.
//   C  recovery daemon over the same store dir: the workload again must
//      yield responses byte-identical to A, with metrics.new_states == 0 and
//      new_views == 0 on every request (nothing re-interned), and the
//      lacon.metrics.v2 snapshot must show arena.state_restored > 0 with
//      arena.state_misses == 0 — the space came back from the log, not from
//      re-exploration.
//
// Exits 0 on success; any violated assertion prints a diagnostic and exits
// nonzero. Used by ci.sh's kill-and-recover lane and the sanitizer soaks.
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <string>
#include <vector>

#include "service/json.hpp"
#include "service/server.hpp"

namespace {

using lacon::service::Json;
using lacon::service::Server;
using lacon::service::ServerOptions;

int g_failures = 0;

void fail(const char* what, const std::string& detail) {
  std::fprintf(stderr, "crash_recover: FAIL %s: %s\n", what, detail.c_str());
  ++g_failures;
}

// The committed workload: four query families against one shared session.
// Responses are id-free by protocol design, so byte-identical replies across
// independent daemon processes is a fair contract.
const std::vector<std::string>& workload() {
  static const std::vector<std::string> kRequests = {
      R"({"id":1,"model":"mobile","n":3,"query":"layers","depth":2})",
      R"({"id":2,"model":"mobile","n":3,"query":"valence","depth":2,"horizon":3})",
      R"({"id":3,"model":"mobile","n":3,"query":"diameter","depth":2})",
      R"({"id":4,"model":"mobile","n":3,"query":"similarity","depth":2})",
  };
  return kRequests;
}

// The requests in flight when the SIGKILL lands, one forked client each.
// Three hammer the committed session concurrently at distinct horizons —
// their commit_wal calls queue on the session's store lock, so the kill can
// land inside an append+fsync — and the fourth interns a bigger fresh
// session so live arena growth is interrupted too.
const std::vector<std::string>& inflight_requests() {
  static const std::vector<std::string> kRequests = {
      R"({"id":5,"model":"mobile","n":3,"query":"valence","depth":2,"horizon":4})",
      R"({"id":6,"model":"mobile","n":3,"query":"valence","depth":2,"horizon":5})",
      R"({"id":7,"model":"mobile","n":3,"query":"layers","depth":3})",
      R"({"id":8,"model":"mobile","n":4,"query":"layers","depth":3})",
  };
  return kRequests;
}

// Forked daemon child: sets the persistence env, serves until SIGTERM.
// Never returns.
[[noreturn]] void run_daemon(const std::string& socket_path,
                             const std::string& store_dir, bool wal) {
  if (wal) {
    setenv("LACON_WAL", "on", 1);
    setenv("LACON_STORE_DIR", store_dir.c_str(), 1);
  } else {
    unsetenv("LACON_WAL");
  }
  static volatile sig_atomic_t stop = 0;
  struct sigaction sa;
  std::memset(&sa, 0, sizeof sa);
  sa.sa_handler = [](int) { stop = 1; };
  sigaction(SIGTERM, &sa, nullptr);

  Server server(ServerOptions{.socket_path = socket_path});
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "crash_recover: daemon start failed: %s\n",
                 error.c_str());
    _exit(3);
  }
  while (stop == 0) {
    struct timespec ts{0, 20'000'000};
    nanosleep(&ts, nullptr);
  }
  server.stop();
  _exit(0);
}

// Waits (in the single-threaded parent, raw syscalls only) until the
// daemon's socket accepts a connection.
bool wait_ready(const std::string& socket_path, int attempts = 200) {
  for (int i = 0; i < attempts; ++i) {
    int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd >= 0) {
      sockaddr_un addr{};
      addr.sun_family = AF_UNIX;
      std::snprintf(addr.sun_path, sizeof addr.sun_path, "%s",
                    socket_path.c_str());
      const bool ok = ::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                                sizeof addr) == 0;
      ::close(fd);
      if (ok) return true;
    }
    struct timespec ts{0, 25'000'000};
    nanosleep(&ts, nullptr);
  }
  return false;
}

bool send_request(const std::string& socket_path, const std::string& line,
                  std::string* response) {
  std::string error;
  if (!Server::request(socket_path, line, response, &error, 30'000)) {
    fail("request", line + " -> " + error);
    return false;
  }
  return true;
}

// Everything but the "metrics"/"snapshot" members (elapsed_ms is wall-clock
// noise); what remains is the result payload the contract promises.
std::string result_fields(const std::string& response_line) {
  auto doc = Json::parse(response_line);
  if (!doc) {
    fail("parse", response_line);
    return response_line;
  }
  Json::Object& obj = doc->object();
  std::erase_if(obj, [](const std::pair<std::string, Json>& member) {
    return member.first == "metrics" || member.first == "snapshot";
  });
  return doc->dump();
}

double metrics_field(const std::string& response_line, const char* name,
                     double fallback) {
  auto doc = Json::parse(response_line);
  if (!doc) return fallback;
  const Json* metrics = doc->find("metrics");
  if (metrics == nullptr) return fallback;
  const Json* field = metrics->find(name);
  return field == nullptr ? fallback : field->as_number(fallback);
}

double counter_field(const std::string& response_line, const char* name,
                     double fallback) {
  auto doc = Json::parse(response_line);
  if (!doc) return fallback;
  const Json* snapshot = doc->find("snapshot");
  if (snapshot == nullptr) return fallback;
  const Json* counters = snapshot->find("counters");
  if (counters == nullptr) return fallback;
  const Json* field = counters->find(name);
  return field == nullptr ? fallback : field->as_number(fallback);
}

pid_t spawn_daemon(const std::string& socket_path, const std::string& store_dir,
                   bool wal) {
  const pid_t pid = ::fork();
  if (pid == 0) run_daemon(socket_path, store_dir, wal);
  if (pid < 0) {
    std::perror("crash_recover: fork");
    std::exit(3);
  }
  if (!wait_ready(socket_path)) {
    fail("startup", "daemon never became ready on " + socket_path);
    ::kill(pid, SIGKILL);
    int status = 0;
    ::waitpid(pid, &status, 0);
    std::exit(3);
  }
  return pid;
}

void stop_daemon(pid_t pid) {
  ::kill(pid, SIGTERM);
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    fail("shutdown", "daemon exited abnormally (status " +
                         std::to_string(status) + ")");
  }
}

}  // namespace

int main() {
  char dir_template[] = "/tmp/crash_recover.XXXXXX";
  const char* tmp = ::mkdtemp(dir_template);
  if (tmp == nullptr) {
    std::perror("crash_recover: mkdtemp");
    return 3;
  }
  const std::string store_dir = tmp;
  const std::string sock_a = store_dir + "/a.sock";
  const std::string sock_b = store_dir + "/b.sock";
  const std::string sock_c = store_dir + "/c.sock";

  // Phase A: reference run, persistence off.
  std::vector<std::string> reference;
  {
    const pid_t pid = spawn_daemon(sock_a, store_dir, /*wal=*/false);
    for (const std::string& req : workload()) {
      std::string resp;
      if (!send_request(sock_a, req, &resp)) return 3;
      reference.push_back(result_fields(resp));
    }
    stop_daemon(pid);
  }

  // Phase B: WAL-enabled run over a fresh store dir, killed mid-workload.
  {
    const pid_t pid = spawn_daemon(sock_b, store_dir, /*wal=*/true);
    for (std::size_t i = 0; i < workload().size(); ++i) {
      std::string resp;
      if (!send_request(sock_b, workload()[i], &resp)) return 3;
      if (result_fields(resp) != reference[i]) {
        fail("phase B", "cold WAL run diverged from reference on " +
                            workload()[i]);
      }
      if (i == 0 && metrics_field(resp, "new_states", 0) <= 0) {
        fail("phase B", "first request interned nothing — workload is vacuous");
      }
    }
    // Put the concurrent requests in flight, one forked client each, then
    // SIGKILL the daemon under them. The clients' outcomes are irrelevant
    // (some may even finish); what matters is that the kill lands with the
    // daemon mid-work — including mid-commit — and that phase C still
    // recovers every response phase B already delivered.
    std::vector<pid_t> clients;
    for (const std::string& req : inflight_requests()) {
      const pid_t client = ::fork();
      if (client == 0) {
        std::string resp, error;
        Server::request(sock_b, req, &resp, &error, 10'000);
        _exit(0);
      }
      if (client > 0) clients.push_back(client);
    }
    struct timespec ts{0, 100'000'000};
    nanosleep(&ts, nullptr);
    ::kill(pid, SIGKILL);
    int status = 0;
    ::waitpid(pid, &status, 0);
    if (!WIFSIGNALED(status) || WTERMSIG(status) != SIGKILL) {
      fail("phase B", "daemon was not killed by SIGKILL (status " +
                          std::to_string(status) + ")");
    }
    for (const pid_t client : clients) ::waitpid(client, &status, 0);
  }

  // Phase C: recovery run over the same store dir.
  {
    const pid_t pid = spawn_daemon(sock_c, store_dir, /*wal=*/true);
    for (std::size_t i = 0; i < workload().size(); ++i) {
      std::string resp;
      if (!send_request(sock_c, workload()[i], &resp)) return 3;
      if (result_fields(resp) != reference[i]) {
        fail("recovery", "response diverged from reference\n  want " +
                             reference[i] + "\n  got  " + result_fields(resp));
      }
      if (metrics_field(resp, "new_states", -1) != 0 ||
          metrics_field(resp, "new_views", -1) != 0) {
        fail("recovery", "request re-interned states after recovery: " +
                             workload()[i]);
      }
    }
    // The metrics snapshot proves the mechanism, not just the outcome: the
    // session content was restored from the log (state_restored > 0) and
    // nothing was re-explored into the arena (state_misses == 0).
    std::string resp;
    const std::string probe =
        R"({"id":9,"model":"mobile","n":3,"query":"layers","depth":2,"metrics":true})";
    if (!send_request(sock_c, probe, &resp)) return 3;
    if (counter_field(resp, "arena.state_restored", 0) <= 0) {
      fail("recovery", "arena.state_restored == 0 — nothing replayed");
    }
    if (counter_field(resp, "arena.state_misses", -1) != 0) {
      fail("recovery", "arena.state_misses != 0 — recovery re-interned");
    }
    stop_daemon(pid);
  }

  if (g_failures != 0) {
    std::fprintf(stderr, "crash_recover: %d failure(s)\n", g_failures);
    return 1;
  }
  std::printf("crash_recover: OK (kill -9 recovered byte-identical, "
              "zero re-interns)\n");
  return 0;
}
