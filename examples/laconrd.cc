// laconrd — analysis-as-a-service daemon over a Unix-domain socket.
//
// Serves newline-delimited JSON analysis requests (service/protocol.hpp)
// against shared interned state spaces: every request for the same
// (model, n, t) hits one hash-consing arena, layer cache and valence memo,
// so repeated queries warm-start on each other's work. With LACON_WAL=on
// every served request is committed to a crash-durable write-ahead log in
// LACON_STORE_DIR before its response is written, so a restart — after a
// clean shutdown or a kill -9 alike — recovers the sessions to their exact
// earlier content (DESIGN.md §14). Shutdown (SIGINT/SIGTERM) saves
// nothing: every response already waited for its commit.
//
// Usage:
//   laconrd [--socket PATH]              serve until SIGINT/SIGTERM
//   laconrd [--socket PATH] --client R   send request line R, print response
//   laconrd ... --client R --timeout MS  fail the client after MS ms
//
// The --client mode makes smoke tests and transcripts dependency-free:
//   laconrd --socket /tmp/lacon.sock &
//   laconrd --socket /tmp/lacon.sock --client
//     '{"id":1,"model":"mobile","n":3,"query":"layers","depth":2}'
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "runtime/stats.hpp"
#include "service/server.hpp"
#include "store/env.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void handle_signal(int) { g_stop = 1; }

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--socket PATH] [--client REQUEST_JSON] "
               "[--timeout MS]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path = "/tmp/laconrd.sock";
  std::string client_request;
  bool client_mode = false;
  int timeout_ms = 30'000;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--socket" && i + 1 < argc) {
      socket_path = argv[++i];
    } else if (arg == "--client" && i + 1 < argc) {
      client_mode = true;
      client_request = argv[++i];
    } else if (arg == "--timeout" && i + 1 < argc) {
      timeout_ms = std::atoi(argv[++i]);
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      return usage(argv[0]);
    }
  }

  if (client_mode) {
    std::string response, error;
    if (!lacon::service::Server::request(socket_path, client_request,
                                         &response, &error, timeout_ms)) {
      std::fprintf(stderr, "laconrd: %s\n", error.c_str());
      return 1;
    }
    std::printf("%s\n", response.c_str());
    return 0;
  }

  lacon::service::Server server({.socket_path = socket_path});
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "laconrd: %s\n", error.c_str());
    return 1;
  }
  std::fprintf(stderr, "laconrd: listening on %s (wal: %s)\n",
               socket_path.c_str(),
               lacon::store::wal_enabled() ? "on" : "off");

  struct sigaction sa;
  std::memset(&sa, 0, sizeof sa);
  sa.sa_handler = handle_signal;
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);

  while (g_stop == 0) {
    struct timespec ts {0, 100'000'000};
    nanosleep(&ts, nullptr);
  }

  std::fprintf(stderr, "laconrd: shutting down (%zu session(s))\n",
               server.sessions().session_count());
  server.stop();
  lacon::runtime::write_env_artifacts();
  return 0;
}
