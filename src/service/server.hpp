// Unix-domain-socket front end for the laconrd protocol.
//
// One listening AF_UNIX stream socket, one thread per accepted connection,
// newline-delimited requests in / responses out (service/protocol.hpp).
// Thread-per-connection is the whole concurrency model: every request runs
// start to finish on the thread that serves its connection, and the
// analysis spawns no threads of its own. Two clients analyzing the same
// session genuinely share the interned space, the layer cache and the
// valence memo, which are concurrent by construction, while each keeps its
// own per-request guard.
//
// Fault posture: connection threads never block indefinitely — reads go
// through poll with a short tick, so stop() always returns promptly even
// against idle clients (it also ::shutdown()s live fds to kick any read in
// flight). Idle connections past idle_timeout_ms are told so and dropped;
// accepts past max_connections are shed with a JSON "overloaded" error
// instead of queueing unboundedly; every socket write is SIGPIPE-safe
// (send + MSG_NOSIGNAL), so a client vanishing mid-response can never kill
// the daemon; finished connection threads are reaped as the accept loop
// ticks rather than accumulating until shutdown.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/protocol.hpp"

namespace lacon::service {

struct ServerOptions {
  std::string socket_path;
  int backlog = 16;
  // Requests are one line; anything longer than this without a newline is
  // answered with an error and the connection dropped.
  std::size_t max_line_bytes = 1 << 20;
  // Accepts beyond this many live connections are answered with a JSON
  // "overloaded" error and closed immediately (load shedding, not queueing).
  std::size_t max_connections = 64;
  // A connection with no complete request for this long is sent a JSON
  // "idle timeout" error and dropped. 0 disables the timeout.
  int idle_timeout_ms = 300'000;
};

class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();  // calls stop()

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds the socket (replacing a stale file at the path), starts the
  // accept loop on a background thread. False + `error` on failure.
  bool start(std::string* error);

  // Stops accepting, closes the listener, shuts down and joins every
  // connection and unlinks the socket file. Returns promptly (worst case a
  // poll tick plus whatever request is mid-flight) even when clients sit
  // idle on open connections. Idempotent. Saves nothing: with LACON_WAL=on
  // every response was committed to its session's log before it was sent.
  void stop();

  bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }
  const std::string& socket_path() const noexcept {
    return options_.socket_path;
  }
  SessionManager& sessions() noexcept { return sessions_; }

  // Connects to `socket_path`, sends one request line, returns the response
  // line (without the newline). Used by `laconrd --client` and the tests;
  // false + `error` on connect/IO failure. The whole exchange (connect,
  // write, read) shares one `timeout_ms` deadline — on expiry the error
  // carries strerror(ETIMEDOUT), so a hung daemon fails a smoke fast
  // instead of hanging it. timeout_ms <= 0 waits forever.
  static bool request(const std::string& socket_path,
                      const std::string& request_line, std::string* response,
                      std::string* error, int timeout_ms = 30'000);

 private:
  // A connection owns its fd for its whole lifetime: the thread polls and
  // reads it, but only reap/stop — after joining the thread — close it.
  // Closing only after the join is what makes stop()'s ::shutdown of live
  // fds safe against fd-number reuse.
  struct Connection {
    int fd = -1;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void accept_loop();
  void serve_connection(Connection* conn);
  // Joins and erases finished connections (accept-loop tick + stop()).
  void reap_finished();

  ServerOptions options_;
  SessionManager sessions_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  int listen_fd_ = -1;
  std::thread accept_thread_;
  std::mutex conn_mu_;
  std::vector<std::unique_ptr<Connection>> connections_;
};

}  // namespace lacon::service
