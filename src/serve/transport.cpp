#include "serve/transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <system_error>

namespace bpm::serve {

namespace {

/// How often the accept thread looks at `stop()` between connections.
constexpr int kPollIntervalMs = 100;
/// How long `stop()` lets connections answer the lines they already
/// received before closing them.
constexpr auto kStopGrace = std::chrono::milliseconds(500);
/// One `recv`'s worth; the line buffer holds at most the line budget plus
/// this.
constexpr std::size_t kRecvBytes = 16384;

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error("transport: " + what + ": " +
                           std::strerror(errno));
}

/// Blocking write of all of `bytes`; false if the connection is gone.
bool send_all(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

}  // namespace

SocketTransport::SocketTransport(SessionContext& context,
                                 TransportOptions options)
    : context_(context), options_(std::move(options)) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw_errno("socket");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    throw std::runtime_error("transport: bad bind address '" +
                             options_.host + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(listen_fd_, 128) != 0) {
    ::close(listen_fd_);
    throw_errno("bind/listen on " + options_.host + ":" +
                std::to_string(options_.port));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);
  // Non-blocking, so a connection that goes away between poll and accept
  // cannot block the accept thread past a stop().
  ::fcntl(listen_fd_, F_SETFL, ::fcntl(listen_fd_, F_GETFL, 0) | O_NONBLOCK);

  accept_thread_ = std::thread([this] { accept_loop(); });
}

SocketTransport::~SocketTransport() { stop(); }

void SocketTransport::wait_shutdown() {
  std::unique_lock lock(mutex_);
  cv_.wait(lock, [&] { return shutdown_requested_ || stopping_; });
}

bool SocketTransport::shutdown_requested() const {
  const std::lock_guard lock(mutex_);
  return shutdown_requested_;
}

void SocketTransport::stop() {
  std::unique_lock lock(mutex_);
  if (stopping_) {
    // A concurrent or repeated stop: wait for the first one to finish.
    cv_.wait(lock, [&] { return stopped_; });
    return;
  }
  stopping_ = true;
  cv_.notify_all();
  lock.unlock();
  // Wakes the accept thread's poll at once on Linux; elsewhere it sees
  // `stopping_` within kPollIntervalMs.
  ::shutdown(listen_fd_, SHUT_RDWR);
  accept_thread_.join();

  // Reading ends: `recv` returns what was already received, then EOF, so
  // received lines are still answered.  Past the grace, writing ends too.
  lock.lock();
  for (const auto& [id, c] : conns_) ::shutdown(c->fd, SHUT_RD);
  if (!cv_.wait_for(lock, kStopGrace, [&] { return conns_.empty(); })) {
    // A peer may keep sending after SHUT_RD, and lines with no reply
    // (blank, comments) never fail a send: `closing_` ends those reads.
    closing_.store(true);
    for (const auto& [id, c] : conns_) ::shutdown(c->fd, SHUT_RDWR);
    // A thread still executing a command (a `wait`, say) leaves when it
    // finishes.
    cv_.wait(lock, [&] { return conns_.empty(); });
  }
  std::vector<std::thread> finished = std::move(finished_);
  lock.unlock();
  for (std::thread& t : finished) t.join();
  ::close(listen_fd_);
  listen_fd_ = -1;

  lock.lock();
  stopped_ = true;
  cv_.notify_all();
}

TransportStats SocketTransport::stats() const {
  const std::lock_guard lock(mutex_);
  TransportStats s = stats_;
  s.open = conns_.size();
  for (const auto& [id, c] : conns_) {
    s.errors += c->session.errors();
    s.requests += c->session.requests();
    s.quota_rejections += c->session.quota_rejections();
  }
  return s;
}

std::vector<TransportClientStats> SocketTransport::client_stats() const {
  const std::lock_guard lock(mutex_);
  std::vector<TransportClientStats> out;
  out.reserve(conns_.size());
  for (const auto& [id, c] : conns_)
    out.push_back({.id = c->id,
                   .authed = c->session.authed(),
                   .requests = c->session.requests(),
                   .errors = c->session.errors(),
                   .quota_rejections = c->session.quota_rejections(),
                   .quota = options_.session.quota});
  return out;
}

std::vector<std::string> SocketTransport::stats_lines() const {
  std::vector<std::string> out;
  const std::vector<TransportClientStats> clients = client_stats();
  for (const TransportClientStats& c : clients) {
    std::ostringstream os;
    os << "client id=" << c.id << " authed=" << (c.authed ? 1 : 0)
       << " requests=" << c.requests << " quota=" << c.quota
       << " errors=" << c.errors << " quota_rejected=" << c.quota_rejections;
    out.push_back(os.str());
  }
  const TransportStats s = stats();
  std::ostringstream os;
  // Deliberately the LAST line of a transport `stats` response: clients
  // reading a multi-line stats reply consume until this prefix.
  os << "transport open=" << s.open << " accepted=" << s.accepted
     << " refused=" << s.refused << " closed=" << s.closed
     << " lines=" << s.lines << " errors=" << s.errors
     << " requests=" << s.requests
     << " quota_rejected=" << s.quota_rejections;
  out.push_back(os.str());
  return out;
}

void SocketTransport::accept_loop() {
  for (;;) {
    std::vector<std::thread> finished;
    {
      const std::lock_guard lock(mutex_);
      if (stopping_) return;
      finished.swap(finished_);
    }
    for (std::thread& t : finished) t.join();

    pollfd p{listen_fd_, POLLIN, 0};
    if (::poll(&p, 1, kPollIntervalMs) > 0) accept_one();
  }
}

void SocketTransport::accept_one() {
  const int fd = ::accept(listen_fd_, nullptr, nullptr);
  if (fd < 0) return;  // gone already, or transient: try again next poll
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  {
    const std::lock_guard lock(mutex_);
    if (conns_.size() < options_.max_clients) {
      const std::uint64_t id = next_conn_id_++;
      Conn& conn = *conns_
                        .emplace(id, std::make_unique<Conn>(
                                         fd, id, context_, options_.session))
                        .first->second;
      try {
        conn.thread = std::thread([this, &conn] { serve(conn); });
        ++stats_.accepted;
        return;
      } catch (const std::system_error&) {
        conns_.erase(id);  // no thread to spare: refused like a full server
      }
    }
    ++stats_.refused;
  }
  [[maybe_unused]] const bool sent = send_all(
      fd, proto::error_line({proto::ErrorCode::kUnavailable,
                             "server full (" +
                                 std::to_string(options_.max_clients) +
                                 " clients)"}) +
              "\n");
  ::close(fd);
}

void SocketTransport::serve(Conn& conn) {
  const std::size_t budget = options_.session.limits.max_line_bytes;
  std::string in;
  char buf[kRecvBytes];
  for (bool open = true; open && !closing_.load();) {
    const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // peer closed, stop(), or a read error
    in.append(buf, static_cast<std::size_t>(n));

    std::size_t start = 0;
    for (std::size_t nl;
         open && (nl = in.find('\n', start)) != std::string::npos;
         start = nl + 1) {
      std::string_view line(in.data() + start, nl - start);
      if (line.ends_with('\r')) line.remove_suffix(1);
      open = answer(conn, line);
    }
    in.erase(0, start);
    if (open && in.size() > budget) {
      // An unterminated line past the budget: the stream's framing is
      // gone — answer once and end the connection.
      [[maybe_unused]] const bool sent = send_all(
          conn.fd, proto::error_line(
                       {proto::ErrorCode::kLineTooLong,
                        "unterminated line past the " +
                            std::to_string(budget) + "-byte budget"}) +
                       "\n");
      const std::lock_guard lock(mutex_);
      ++stats_.errors;
      open = false;
    }
  }

  const int fd = conn.fd;
  {
    const std::lock_guard lock(mutex_);
    stats_.errors += conn.session.errors();
    stats_.requests += conn.session.requests();
    stats_.quota_rejections += conn.session.quota_rejections();
    ++stats_.closed;
    finished_.push_back(std::move(conn.thread));
    conns_.erase(conn.id);  // destroys `conn`
    cv_.notify_all();
  }
  // Out of `conns_` first, so stop() never shuts down a reused fd number.
  ::close(fd);
}

bool SocketTransport::answer(Conn& conn, std::string_view line) {
  const Session::Outcome outcome = conn.session.execute(line);
  std::string reply;
  for (const std::string& l : outcome.lines) {
    reply += l;
    reply += '\n';
  }
  if (outcome.stats)
    for (const std::string& l : stats_lines()) {
      reply += l;
      reply += '\n';
    }
  {
    const std::lock_guard lock(mutex_);
    ++stats_.lines;
  }

  const bool sent = send_all(conn.fd, reply);
  if (outcome.shutdown) {
    // Only now: `ok shutdown` is written before the owner can stop().  A
    // client gone before it could read it still stops the server.
    const std::lock_guard lock(mutex_);
    shutdown_requested_ = true;
    cv_.notify_all();
  }
  return sent && !outcome.close;
}

// --- LineClient --------------------------------------------------------------

LineClient::LineClient(const std::string& host, std::uint16_t port,
                       int connect_timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(connect_timeout_ms);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1)
    throw std::runtime_error("line client: bad address '" + host + "'");
  for (;;) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ >= 0 &&
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0)
      return;
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
    if (std::chrono::steady_clock::now() >= deadline)
      throw std::runtime_error("line client: cannot connect to " + host +
                               ":" + std::to_string(port));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
}

LineClient::~LineClient() { close(); }

void LineClient::close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

void LineClient::send_raw(std::string_view bytes) {
  if (!send_all(fd_, bytes))
    throw std::runtime_error("line client: send failed: " +
                             std::string(std::strerror(errno)));
}

void LineClient::send_line(std::string_view line) {
  std::string framed(line);
  framed.push_back('\n');
  send_raw(framed);
}

std::optional<std::string> LineClient::recv_line(int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    const std::size_t nl = buffer_.find('\n');
    if (nl != std::string::npos) {
      std::string line = buffer_.substr(0, nl);
      buffer_.erase(0, nl + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return line;
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - std::chrono::steady_clock::now())
                          .count();
    if (left <= 0) return std::nullopt;
    pollfd p{fd_, POLLIN, 0};
    const int r = ::poll(&p, 1, static_cast<int>(left));
    if (r <= 0) {
      if (r < 0 && errno == EINTR) continue;
      return std::nullopt;  // timeout
    }
    char buf[8192];
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n <= 0) return std::nullopt;  // EOF or error
    buffer_.append(buf, static_cast<std::size_t>(n));
  }
}

}  // namespace bpm::serve
