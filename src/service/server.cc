#include "service/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "runtime/stats.hpp"

namespace lacon::service {

namespace {

using Clock = std::chrono::steady_clock;

bool fill_addr(const std::string& path, sockaddr_un* addr, std::string* error) {
  if (path.empty() || path.size() >= sizeof addr->sun_path) {
    if (error != nullptr) *error = "socket path empty or too long: " + path;
    return false;
  }
  std::memset(addr, 0, sizeof *addr);
  addr->sun_family = AF_UNIX;
  std::memcpy(addr->sun_path, path.c_str(), path.size() + 1);
  return true;
}

// All daemon-side writes go through send+MSG_NOSIGNAL: a client that closed
// its end mid-response costs an EPIPE return, never a SIGPIPE.
bool send_all(int fd, const char* data, std::size_t bytes) {
  while (bytes > 0) {
    const ssize_t n = ::send(fd, data, bytes, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    bytes -= static_cast<std::size_t>(n);
  }
  return true;
}

constexpr char kOverloadedResponse[] =
    "{\"id\":null,\"status\":\"error\",\"error\":\"overloaded\"}\n";
constexpr char kIdleTimeoutResponse[] =
    "{\"id\":null,\"status\":\"error\",\"error\":\"idle timeout\"}\n";
constexpr char kLineTooLongResponse[] =
    "{\"id\":null,\"status\":\"error\",\"error\":\"request line too "
    "long\"}\n";

// Milliseconds left until `deadline`, for poll(): never negative, and -1
// (poll's "wait forever") when no deadline was set.
int remaining_ms(bool has_deadline, Clock::time_point deadline) {
  if (!has_deadline) return -1;
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                        deadline - Clock::now())
                        .count();
  return left > 0 ? static_cast<int>(left) : 0;
}

bool fail_errno(std::string* error, const std::string& what, int err) {
  if (error != nullptr) *error = what + ": " + std::strerror(err);
  return false;
}

}  // namespace

Server::Server(ServerOptions options) : options_(std::move(options)) {}

Server::~Server() { stop(); }

bool Server::start(std::string* error) {
  sockaddr_un addr;
  if (!fill_addr(options_.socket_path, &addr, error)) return false;

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    if (error != nullptr) *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  // A previous run's socket file would make bind fail with EADDRINUSE even
  // though nobody is listening; a stale *live* listener is the caller's
  // configuration error either way, so replace unconditionally.
  ::unlink(options_.socket_path.c_str());
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
          0 ||
      ::listen(listen_fd_, options_.backlog) < 0) {
    if (error != nullptr) {
      *error = std::string("bind/listen on ") + options_.socket_path + ": " +
               std::strerror(errno);
    }
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { accept_loop(); });
  return true;
}

void Server::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stopping_.store(true, std::memory_order_release);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // Kick every live connection out of its poll: shutdown makes the next
  // poll/read return immediately (POLLHUP / 0), so idle clients cannot
  // stall the join. The fds stay open until after the joins — a thread may
  // still be mid-read on one, and closing first would race fd reuse.
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (const auto& conn : connections_) {
      if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RDWR);
    }
  }
  std::vector<std::unique_ptr<Connection>> connections;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    connections.swap(connections_);
  }
  for (const auto& conn : connections) {
    if (conn->thread.joinable()) conn->thread.join();
    if (conn->fd >= 0) ::close(conn->fd);
  }
  ::unlink(options_.socket_path.c_str());
}

void Server::reap_finished() {
  std::vector<std::unique_ptr<Connection>> finished;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (auto it = connections_.begin(); it != connections_.end();) {
      if ((*it)->done.load(std::memory_order_acquire)) {
        finished.push_back(std::move(*it));
        it = connections_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (const auto& conn : finished) {
    if (conn->thread.joinable()) conn->thread.join();
    if (conn->fd >= 0) ::close(conn->fd);
  }
}

void Server::accept_loop() {
  auto& stats = runtime::Stats::global();
  while (!stopping_.load(std::memory_order_acquire)) {
    reap_finished();
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (ready < 0 && errno != EINTR) break;
    if (ready <= 0 || (pfd.revents & POLLIN) == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;

    bool overloaded;
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
      overloaded = connections_.size() >= options_.max_connections;
    }
    if (overloaded) {
      // Shed instead of queueing: a bounded worker set keeps one greedy
      // client population from starving the daemon of threads, and the
      // typed error lets well-behaved clients back off and retry.
      send_all(fd, kOverloadedResponse, sizeof kOverloadedResponse - 1);
      ::close(fd);
      stats.counter("service.connections_shed").increment();
      continue;
    }

    stats.counter("service.connections").increment();
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    Connection* raw = conn.get();
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
      connections_.push_back(std::move(conn));
    }
    raw->thread = std::thread([this, raw] { serve_connection(raw); });
  }
}

void Server::serve_connection(Connection* conn) {
  const int fd = conn->fd;
  std::string buffer;
  char chunk[4096];
  auto last_activity = Clock::now();

  while (!stopping_.load(std::memory_order_acquire)) {
    // Short poll ticks instead of a blocking read: stop() and the idle
    // deadline are both observed within ~100ms no matter how quiet the
    // client is.
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (ready == 0) {
      if (options_.idle_timeout_ms > 0 &&
          Clock::now() - last_activity >=
              std::chrono::milliseconds(options_.idle_timeout_ms)) {
        send_all(fd, kIdleTimeoutResponse, sizeof kIdleTimeoutResponse - 1);
        runtime::Stats::global()
            .counter("service.connections_idle_closed")
            .increment();
        break;
      }
      continue;
    }
    if ((pfd.revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;

    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    buffer.append(chunk, static_cast<std::size_t>(n));
    last_activity = Clock::now();

    // Pipelining: every complete line the chunk delivered is one batch.
    // handle_batch executes the requests in order and commits each
    // touched session ONCE, so a client that writes k requests back to
    // back pays one WAL fsync, not k — and the responses (sent below, in
    // request order) still only hit the wire after that commit.
    std::size_t start = 0;
    std::vector<std::string> lines;
    for (std::size_t nl = buffer.find('\n', start); nl != std::string::npos;
         nl = buffer.find('\n', start)) {
      std::string_view line(buffer.data() + start, nl - start);
      if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
      start = nl + 1;
      if (line.empty()) continue;
      lines.emplace_back(line);
    }
    buffer.erase(0, start);
    if (!lines.empty()) {
      if (lines.size() > 1) {
        runtime::Stats::global()
            .counter("service.pipelined_lines")
            .add(lines.size());
      }
      const std::vector<std::string> responses =
          handle_batch(sessions_, lines);
      for (const std::string& r : responses) {
        const std::string framed = r + "\n";
        if (!send_all(fd, framed.data(), framed.size())) {
          conn->done.store(true, std::memory_order_release);
          return;
        }
      }
      last_activity = Clock::now();
    }

    if (buffer.size() > options_.max_line_bytes) {
      send_all(fd, kLineTooLongResponse, sizeof kLineTooLongResponse - 1);
      break;
    }
  }
  conn->done.store(true, std::memory_order_release);
}

bool Server::request(const std::string& socket_path,
                     const std::string& request_line, std::string* response,
                     std::string* error, int timeout_ms) {
  sockaddr_un addr;
  if (!fill_addr(socket_path, &addr, error)) return false;

  const bool has_deadline = timeout_ms > 0;
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(has_deadline ? timeout_ms : 0);

  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd < 0) {
    if (error != nullptr) *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }

  // Non-blocking connect + poll: a daemon that accepted its backlog but
  // stopped accepting can otherwise park the client in connect() forever.
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    if (errno != EINPROGRESS && errno != EAGAIN) {
      fail_errno(error, "connect to " + socket_path, errno);
      ::close(fd);
      return false;
    }
    pollfd pfd{fd, POLLOUT, 0};
    const int ready = ::poll(&pfd, 1, remaining_ms(has_deadline, deadline));
    if (ready <= 0) {
      fail_errno(error, "connect to " + socket_path,
                 ready == 0 ? ETIMEDOUT : errno);
      ::close(fd);
      return false;
    }
    int so_error = 0;
    socklen_t len = sizeof so_error;
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len) < 0 ||
        so_error != 0) {
      fail_errno(error, "connect to " + socket_path,
                 so_error != 0 ? so_error : errno);
      ::close(fd);
      return false;
    }
  }

  const std::string line = request_line + "\n";
  const char* data = line.data();
  std::size_t left = line.size();
  while (left > 0) {
    pollfd pfd{fd, POLLOUT, 0};
    const int ready = ::poll(&pfd, 1, remaining_ms(has_deadline, deadline));
    if (ready <= 0) {
      fail_errno(error, "write to " + socket_path,
                 ready == 0 ? ETIMEDOUT : errno);
      ::close(fd);
      return false;
    }
    const ssize_t n = ::send(fd, data, left, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      if (errno == EPIPE || errno == ECONNRESET) {
        // The daemon answered and closed before reading our request — the
        // overload-shed path does exactly this. Its parting response is
        // still in our receive buffer; go collect it.
        break;
      }
      fail_errno(error, "write to " + socket_path, errno);
      ::close(fd);
      return false;
    }
    data += n;
    left -= static_cast<std::size_t>(n);
  }

  response->clear();
  char chunk[4096];
  while (response->find('\n') == std::string::npos) {
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, remaining_ms(has_deadline, deadline));
    if (ready <= 0) {
      fail_errno(error, "read from " + socket_path,
                 ready == 0 ? ETIMEDOUT : errno);
      ::close(fd);
      return false;
    }
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n < 0 && (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)) {
      continue;
    }
    if (n <= 0) {
      if (error != nullptr) *error = "connection closed before a response";
      ::close(fd);
      return false;
    }
    response->append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  response->resize(response->find('\n'));
  return true;
}

}  // namespace lacon::service
