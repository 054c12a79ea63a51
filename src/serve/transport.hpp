#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "serve/session.hpp"

namespace bpm::serve {

struct TransportOptions {
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port; read the real one back from `port()`.
  std::uint16_t port = 0;
  /// Connections beyond this are refused with `error code=unavailable`.
  /// Each admitted connection has one thread, so this also bounds the
  /// commands in flight.
  std::size_t max_clients = 64;
  /// Auth token, per-client quota, and line budget for every connection.
  Session::Options session;
};

/// Lifetime counters of a transport, their one home: a transport belongs
/// to a listener, not to the service, so nothing of it enters the
/// service's registry.  The per-connection counts sum every connection,
/// open or closed.
struct TransportStats {
  std::uint64_t accepted = 0;  ///< connections admitted
  std::uint64_t refused = 0;   ///< connections over max_clients
  std::uint64_t closed = 0;    ///< connections torn down
  std::uint64_t lines = 0;     ///< protocol lines executed
  std::uint64_t errors = 0;    ///< `error ...` responses sent
  std::uint64_t requests = 0;  ///< commands admitted under the quota
  std::uint64_t quota_rejections = 0;  ///< commands refused over it
  std::size_t open = 0;        ///< snapshot: currently connected
};

/// One open connection's accounting, served under `stats` as a
/// `client ...` line and queryable in-process for benches/tests.
struct TransportClientStats {
  std::uint64_t id = 0;
  bool authed = false;
  std::uint64_t requests = 0;
  std::uint64_t errors = 0;
  std::uint64_t quota_rejections = 0;
  std::uint64_t quota = 0;  ///< configured limit (0 = unlimited)
};

/// A line-protocol socket server running one thread per connection
/// against one `MatchingService`.
///
/// An accept thread admits connections (refusing those over
/// `max_clients`).  Each admitted connection's thread owns its socket and
/// its `Session` and runs the stdin driver's loop: block in `recv` until a
/// whole line is buffered (an unterminated tail past the line budget ends
/// the connection), execute it, write the reply with a blocking `send`.
/// So each client sees strict FIFO request/response order, a blocking
/// `wait` stalls only its own connection, and a client that stops reading
/// stalls only its own thread: TCP backpressure bounds what it makes the
/// server hold to one line budget plus the kernel's socket buffers.
/// Every response is produced by the connection's `Session`, so quotas,
/// auth, and the never-crash malformed-input guarantees are identical to
/// the stdin driver.
///
/// A client's `shutdown` command drains the service, answers
/// `ok shutdown`, and then unblocks `wait_shutdown()`; the owner then
/// calls `stop()`, which stops accepting, lets every connection finish
/// the lines it has received (bounded grace), closes them all, and joins
/// every thread.
///
/// ```
/// serve::SessionContext ctx(service);
/// serve::SocketTransport transport(ctx, {.port = 0, .max_clients = 16});
/// std::cout << "listening on " << transport.port() << "\n";
/// transport.wait_shutdown();   // until a client sends `shutdown`
/// transport.stop();
/// ```
class SocketTransport {
 public:
  /// Binds and starts serving immediately; throws `std::runtime_error`
  /// if the socket cannot be bound.
  explicit SocketTransport(SessionContext& context)
      : SocketTransport(context, TransportOptions()) {}
  SocketTransport(SessionContext& context, TransportOptions options);
  ~SocketTransport();

  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Blocks until a client's `ok shutdown` is written or `stop()` is
  /// called.
  void wait_shutdown();
  [[nodiscard]] bool shutdown_requested() const;

  /// Stops accepting and ends every connection's reading; replies to the
  /// lines already received are still written for a bounded grace, then
  /// every connection is closed and every thread joined.  Idempotent.
  void stop();

  [[nodiscard]] TransportStats stats() const;
  /// The open connections only; a closed one lives on in `stats()`.
  [[nodiscard]] std::vector<TransportClientStats> client_stats() const;

 private:
  struct Conn {
    Conn(int fd, std::uint64_t id, SessionContext& context,
         const Session::Options& options)
        : fd(fd), id(id), session(context, options) {}
    const int fd;  ///< closed by the connection's own thread only
    const std::uint64_t id;
    Session session;
    std::thread thread;  ///< set under `mutex_` before it can exit
  };

  void accept_loop();
  void accept_one();
  /// The connection thread: read, execute and answer lines until the peer
  /// closes, the line budget is blown, or `stop()` ends it; then folds its
  /// counters into `stats_`, leaves `conns_`, and closes its fd.
  void serve(Conn& conn);
  /// Executes one line and writes its reply; false ends the connection.
  bool answer(Conn& conn, std::string_view line);
  /// `client ...` lines + the final `transport ...` summary appended to
  /// every `stats` response served over this transport.
  [[nodiscard]] std::vector<std::string> stats_lines() const;

  SessionContext& context_;
  TransportOptions options_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;

  /// Guards the members from here to `stopped_`.
  mutable std::mutex mutex_;
  /// Signals a connection leaving, a `shutdown`, and stop's progress.
  std::condition_variable cv_;
  std::map<std::uint64_t, std::unique_ptr<Conn>> conns_;
  /// Threads of closed connections, joined by the accept thread or stop().
  std::vector<std::thread> finished_;
  std::uint64_t next_conn_id_ = 1;
  /// Lifetime counters; the per-connection ones hold closed connections
  /// only, `stats()` adds the open ones.
  TransportStats stats_;
  bool stopping_ = false;
  bool shutdown_requested_ = false;
  bool stopped_ = false;
  /// Set once stop()'s grace is over: connection threads read no further.
  std::atomic<bool> closing_{false};

  std::thread accept_thread_;
};

/// Minimal blocking line-protocol client for benches and tests: connects
/// (with retry until `connect_timeout_ms`, so a just-forked server is not
/// a race), sends single lines, and reads newline-terminated responses
/// with a timeout.  Throws `std::runtime_error` on connect/send failure;
/// `recv_line` returns nullopt on EOF or timeout.
class LineClient {
 public:
  LineClient(const std::string& host, std::uint16_t port,
             int connect_timeout_ms = 5000);
  ~LineClient();

  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  void send_line(std::string_view line);
  /// Sends raw bytes without the newline (oversized-line tests).
  void send_raw(std::string_view bytes);
  [[nodiscard]] std::optional<std::string> recv_line(int timeout_ms = 30000);
  void close();

 private:
  int fd_ = -1;
  std::string buffer_;
};

}  // namespace bpm::serve
