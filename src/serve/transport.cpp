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

#include "obs/metrics.hpp"

namespace bpm::serve {

namespace {

constexpr int kPollIntervalMs = 100;
/// How long `stop()` keeps flushing pending responses before closing.
constexpr auto kStopGrace = std::chrono::milliseconds(500);
/// Past this, connections are torn down even with an executor blocked on
/// them (the executor finishes against the still-alive Conn object).
constexpr auto kStopForce = std::chrono::milliseconds(3000);

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error("transport: " + what + ": " +
                           std::strerror(errno));
}

}  // namespace

SocketTransport::SocketTransport(SessionContext& context,
                                 TransportOptions options)
    : context_(context), options_(std::move(options)) {
  if (options_.executors == 0) options_.executors = 4;

  int pipe_fds[2] = {-1, -1};
  if (::pipe(pipe_fds) != 0) throw_errno("pipe");
  wake_read_fd_ = pipe_fds[0];
  wake_write_fd_ = pipe_fds[1];
  set_nonblocking(wake_read_fd_);
  set_nonblocking(wake_write_fd_);

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  const auto cleanup = [&] {
    if (listen_fd_ >= 0) ::close(listen_fd_);
    ::close(wake_read_fd_);
    ::close(wake_write_fd_);
  };
  if (listen_fd_ < 0) {
    cleanup();
    throw_errno("socket");
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    cleanup();
    throw std::runtime_error("transport: bad bind address '" +
                             options_.host + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(listen_fd_, 128) != 0) {
    cleanup();
    throw_errno("bind/listen on " + options_.host + ":" +
                std::to_string(options_.port));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);
  set_nonblocking(listen_fd_);

  poll_thread_ = std::thread([this] { poll_loop(); });
  executors_.reserve(options_.executors);
  for (unsigned e = 0; e < options_.executors; ++e)
    executors_.emplace_back([this] { executor_loop(); });
}

SocketTransport::~SocketTransport() { stop(); }

void SocketTransport::wake() {
  const char byte = 'w';
  [[maybe_unused]] const ssize_t n = ::write(wake_write_fd_, &byte, 1);
}

void SocketTransport::wait_shutdown() {
  std::unique_lock lock(state_mutex_);
  state_cv_.wait(lock, [&] { return shutdown_requested_ || stopping_; });
}

bool SocketTransport::shutdown_requested() const {
  const std::lock_guard lock(state_mutex_);
  return shutdown_requested_;
}

void SocketTransport::stop() {
  {
    std::unique_lock lock(state_mutex_);
    if (stopping_) {
      // A concurrent or repeated stop: wait for the first one to finish.
      state_cv_.wait(lock, [&] { return stopped_; });
      return;
    }
    stopping_ = true;
    state_cv_.notify_all();
  }
  wake();
  if (poll_thread_.joinable()) poll_thread_.join();
  {
    const std::lock_guard lock(work_mutex_);
    stop_executors_ = true;
    work_cv_.notify_all();
  }
  for (std::thread& t : executors_)
    if (t.joinable()) t.join();
  ::close(listen_fd_);
  ::close(wake_read_fd_);
  ::close(wake_write_fd_);
  listen_fd_ = wake_read_fd_ = wake_write_fd_ = -1;
  {
    const std::lock_guard lock(state_mutex_);
    stopped_ = true;
    state_cv_.notify_all();
  }
}

TransportStats SocketTransport::stats() const {
  const std::lock_guard lock(conns_mutex_);
  TransportStats s = stats_;
  s.open = conns_.size();
  for (const auto& [id, c] : conns_) {
    s.errors += c->session->errors();
    s.requests += c->session->requests();
    s.quota_rejections += c->session->quota_rejections();
  }
  return s;
}

std::vector<TransportClientStats> SocketTransport::client_stats() const {
  const std::lock_guard lock(conns_mutex_);
  std::vector<TransportClientStats> out;
  out.reserve(conns_.size());
  for (const auto& [id, c] : conns_)
    out.push_back({.id = c->id,
                   .authed = c->session->authed(),
                   .requests = c->session->requests(),
                   .errors = c->session->errors(),
                   .quota_rejections = c->session->quota_rejections(),
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

void SocketTransport::handle_accept() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN or transient error: try again next poll
    set_nonblocking(fd);
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    const std::lock_guard lock(conns_mutex_);
    if (conns_.size() >= options_.max_clients) {
      const std::string refusal =
          proto::error_line({proto::ErrorCode::kUnavailable,
                             "server full (" +
                                 std::to_string(options_.max_clients) +
                                 " clients)"}) +
          "\n";
      [[maybe_unused]] const ssize_t n =
          ::send(fd, refusal.data(), refusal.size(), MSG_NOSIGNAL);
      ::close(fd);
      ++stats_.refused;
      continue;
    }
    auto conn = std::make_shared<Conn>();
    conn->fd = fd;
    conn->id = next_conn_id_++;
    conn->session = std::make_unique<Session>(context_, options_.session);
    conns_.emplace(conn->id, std::move(conn));
    ++stats_.accepted;
    obs::Registry::global().counter("serve.transport.accepted").inc();
    obs::Registry::global()
        .gauge("serve.transport.open_connections")
        .set(static_cast<double>(conns_.size()));
  }
}

void SocketTransport::handle_read(const std::shared_ptr<Conn>& conn) {
  char buf[16384];
  std::string received;
  bool eof = false;
  for (;;) {
    const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      received.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) {
      eof = true;
    } else if (errno == EINTR) {
      continue;
    } else if (errno != EAGAIN && errno != EWOULDBLOCK) {
      eof = true;
    }
    break;
  }

  bool overflowed = false;
  {
    const std::lock_guard lock(conn->m);
    conn->inbuf += received;
    if (eof) conn->eof = true;
    std::size_t start = 0;
    for (std::size_t nl; (nl = conn->inbuf.find('\n', start)) !=
                         std::string::npos;
         start = nl + 1) {
      std::string line = conn->inbuf.substr(start, nl - start);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      conn->pending.push_back(std::move(line));
    }
    conn->inbuf.erase(0, start);
    if (conn->inbuf.size() > options_.session.limits.max_line_bytes) {
      // An unterminated line past the budget: the stream's framing is
      // gone — answer once, drop the blob, end the connection.
      conn->outbuf +=
          proto::error_line(
              {proto::ErrorCode::kLineTooLong,
               "unterminated line past the " +
                   std::to_string(options_.session.limits.max_line_bytes) +
                   "-byte budget"}) +
          "\n";
      conn->inbuf.clear();
      conn->close_after_flush = true;
      overflowed = true;
    }
  }
  if (overflowed) {
    // Counted outside conn->m: the lock order is conns_mutex_ -> conn->m,
    // never the reverse.
    obs::Registry::global().counter("serve.transport.errors").inc();
    const std::lock_guard lock(conns_mutex_);
    ++stats_.errors;
  }
  maybe_schedule(conn);
}

void SocketTransport::handle_write(const std::shared_ptr<Conn>& conn) {
  const std::lock_guard lock(conn->m);
  while (!conn->outbuf.empty()) {
    const ssize_t n = ::send(conn->fd, conn->outbuf.data(),
                             conn->outbuf.size(), MSG_NOSIGNAL);
    if (n > 0) {
      conn->outbuf.erase(0, static_cast<std::size_t>(n));
      continue;
    }
    if (errno == EINTR) continue;
    if (errno != EAGAIN && errno != EWOULDBLOCK) conn->eof = true;
    break;
  }
}

void SocketTransport::maybe_schedule(const std::shared_ptr<Conn>& conn) {
  bool schedule = false;
  {
    const std::lock_guard lock(conn->m);
    if (!conn->executing && !conn->pending.empty() &&
        !conn->close_after_flush) {
      conn->executing = true;
      schedule = true;
    }
  }
  if (schedule) {
    const std::lock_guard lock(work_mutex_);
    work_.push_back(conn);
    work_cv_.notify_one();
  }
}

void SocketTransport::poll_loop() {
  std::vector<pollfd> fds;
  std::vector<std::shared_ptr<Conn>> polled;
  auto stop_seen = std::chrono::steady_clock::time_point::max();

  for (;;) {
    bool stopping;
    {
      const std::lock_guard lock(state_mutex_);
      stopping = stopping_;
    }
    const auto now = std::chrono::steady_clock::now();
    if (stopping && stop_seen == std::chrono::steady_clock::time_point::max())
      stop_seen = now;

    fds.clear();
    polled.clear();
    fds.push_back({wake_read_fd_, POLLIN, 0});
    bool listening = false;
    {
      const std::lock_guard lock(conns_mutex_);
      if (!stopping && conns_.size() <= options_.max_clients) {
        // Keep polling the listener at the cap too, so over-limit
        // connections are refused promptly instead of queueing.
        fds.push_back({listen_fd_, POLLIN, 0});
        listening = true;
      }
      for (const auto& [id, c] : conns_) {
        short events = 0;
        {
          const std::lock_guard cl(c->m);
          if (!c->eof && !c->close_after_flush && !stopping) events |= POLLIN;
          if (!c->outbuf.empty()) events |= POLLOUT;
        }
        fds.push_back({c->fd, events, 0});
        polled.push_back(c);
      }
    }

    ::poll(fds.data(), static_cast<nfds_t>(fds.size()), kPollIntervalMs);

    if (fds[0].revents & POLLIN) {
      char drain[64];
      while (::read(wake_read_fd_, drain, sizeof(drain)) > 0) {
      }
    }
    std::size_t base = 1;
    if (listening) {
      if (fds[1].revents & POLLIN) handle_accept();
      base = 2;
    }
    for (std::size_t i = 0; i < polled.size(); ++i) {
      const short revents = fds[base + i].revents;
      if (revents & (POLLIN | POLLHUP | POLLERR)) handle_read(polled[i]);
      if (revents & POLLOUT) handle_write(polled[i]);
    }

    // Teardown sweep.  A connection leaves once no executor owns it and
    // it has nothing left to say; a stop() flushes within the grace
    // window, then force-closes (the Conn object itself stays alive for
    // any executor still blocked on it).
    {
      const std::lock_guard lock(conns_mutex_);
      for (auto it = conns_.begin(); it != conns_.end();) {
        const std::shared_ptr<Conn>& c = it->second;
        bool remove;
        bool force = stopping && now - stop_seen > kStopForce;
        {
          const std::lock_guard cl(c->m);
          const bool idle = !c->executing && c->pending.empty();
          const bool flushed = c->outbuf.empty();
          remove = force ||
                   (idle && ((c->eof) || (c->close_after_flush && flushed) ||
                             (stopping &&
                              (flushed || now - stop_seen > kStopGrace))));
        }
        if (!remove) {
          ++it;
          continue;
        }
        stats_.errors += c->session->errors();
        stats_.requests += c->session->requests();
        stats_.quota_rejections += c->session->quota_rejections();
        ::shutdown(c->fd, SHUT_RDWR);
        ::close(c->fd);
        c->fd = -1;
        ++stats_.closed;
        it = conns_.erase(it);
      }
      obs::Registry::global()
          .gauge("serve.transport.open_connections")
          .set(static_cast<double>(conns_.size()));
      if (stopping && conns_.empty()) return;
    }
  }
}

void SocketTransport::executor_loop() {
  for (;;) {
    std::shared_ptr<Conn> conn;
    {
      std::unique_lock lock(work_mutex_);
      work_cv_.wait(lock,
                    [&] { return stop_executors_ || !work_.empty(); });
      if (work_.empty()) return;
      conn = std::move(work_.front());
      work_.pop_front();
    }

    std::string line;
    bool have = false;
    {
      const std::lock_guard lock(conn->m);
      if (!conn->pending.empty()) {
        line = std::move(conn->pending.front());
        conn->pending.pop_front();
        have = true;
      }
    }

    Session::Outcome outcome;
    if (have) outcome = conn->session->execute(line);
    // Collected BEFORE taking conn->m: stats_lines locks conns_mutex_
    // then each conn's mutex, and that order must hold everywhere.
    std::vector<std::string> extra;
    if (outcome.stats) extra = stats_lines();

    std::uint64_t new_errors = 0;
    for (const std::string& l : outcome.lines)
      if (l.starts_with("error ")) ++new_errors;

    bool more = false;
    {
      const std::lock_guard lock(conn->m);
      for (const std::string& l : outcome.lines) {
        conn->outbuf += l;
        conn->outbuf += '\n';
      }
      for (const std::string& l : extra) {
        conn->outbuf += l;
        conn->outbuf += '\n';
      }
      if (outcome.close) conn->close_after_flush = true;
      if (!conn->pending.empty() && !conn->close_after_flush)
        more = true;
      else
        conn->executing = false;
    }
    if (have) {
      const std::lock_guard lock(conns_mutex_);
      ++stats_.lines;
    }
    if (have) obs::Registry::global().counter("serve.transport.lines").inc();
    if (new_errors > 0)
      obs::Registry::global()
          .counter("serve.transport.errors")
          .add(new_errors);
    if (outcome.shutdown) {
      const std::lock_guard lock(state_mutex_);
      shutdown_requested_ = true;
      state_cv_.notify_all();
    }
    if (more) {
      const std::lock_guard lock(work_mutex_);
      work_.push_back(conn);
      work_cv_.notify_one();
    }
    wake();
  }
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
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("line client: send failed: " +
                               std::string(std::strerror(errno)));
    }
    sent += static_cast<std::size_t>(n);
  }
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
