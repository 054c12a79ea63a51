#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
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
  std::size_t max_clients = 64;
  /// Command executor threads.  Blocking commands (`wait`, `drain`) hold
  /// an executor while they block, so size this at least as large as the
  /// number of clients expected to block concurrently; others' commands
  /// queue behind them but always make progress.  0 = 4.
  unsigned executors = 0;
  /// Auth token, per-client quota, and line budget for every connection.
  Session::Options session;
};

/// Lifetime counters of a transport (mirrors `ServiceStats` style).  The
/// per-connection counts sum every connection, open or closed.
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

/// A poll(2)-based line-protocol socket server multiplexing N concurrent
/// clients onto one `MatchingService`.
///
/// One poll thread owns all I/O: it accepts connections, splits reads
/// into protocol lines (enforcing the per-connection line budget), and
/// flushes response bytes.  Commands execute on a small executor pool —
/// at most one in flight per connection, so each client sees strict FIFO
/// request/response order, while different clients' commands (including
/// blocking `wait`s) proceed concurrently.  Every response is produced by
/// a per-connection `Session`, so quotas, auth, and the never-crash
/// malformed-input guarantees are identical to the stdin driver.
///
/// A client's `shutdown` command drains the service, answers
/// `ok shutdown`, and unblocks `wait_shutdown()`; the owner then calls
/// `stop()`, which stops accepting, flushes pending responses (bounded
/// grace), closes every connection, and joins all threads.
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

  /// Blocks until a client issues `shutdown` or `stop()` is called.
  void wait_shutdown();
  [[nodiscard]] bool shutdown_requested() const;

  /// Stops accepting, flushes pending responses (bounded grace), closes
  /// every connection, joins the poll and executor threads.  Idempotent.
  void stop();

  [[nodiscard]] TransportStats stats() const;
  /// The open connections only; a closed one lives on in `stats()`.
  [[nodiscard]] std::vector<TransportClientStats> client_stats() const;

 private:
  struct Conn {
    int fd = -1;
    std::uint64_t id = 0;
    std::unique_ptr<Session> session;

    std::mutex m;  ///< guards everything below (lock AFTER conns_mutex_)
    std::string inbuf;
    std::deque<std::string> pending;  ///< parsed lines awaiting execution
    std::string outbuf;
    bool executing = false;  ///< an executor owns this conn right now
    bool eof = false;        ///< peer closed / read error; stop reading
    bool close_after_flush = false;
  };

  void poll_loop();
  void executor_loop();
  void handle_accept();
  void handle_read(const std::shared_ptr<Conn>& conn);
  void handle_write(const std::shared_ptr<Conn>& conn);
  /// Queues the conn for execution if it has work and no executor.
  void maybe_schedule(const std::shared_ptr<Conn>& conn);
  /// `client ...` lines + the final `transport ...` summary appended to
  /// every `stats` response served over this transport.
  [[nodiscard]] std::vector<std::string> stats_lines() const;
  void wake();

  SessionContext& context_;
  TransportOptions options_;
  int listen_fd_ = -1;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;
  std::uint16_t port_ = 0;

  mutable std::mutex conns_mutex_;
  std::map<std::uint64_t, std::shared_ptr<Conn>> conns_;
  std::uint64_t next_conn_id_ = 1;
  /// Lifetime counters; the per-connection ones hold closed connections
  /// only, `stats()` adds the open ones.
  TransportStats stats_;

  std::mutex work_mutex_;
  std::condition_variable work_cv_;
  std::deque<std::shared_ptr<Conn>> work_;
  bool stop_executors_ = false;

  mutable std::mutex state_mutex_;
  std::condition_variable state_cv_;
  bool stopping_ = false;
  bool shutdown_requested_ = false;
  bool stopped_ = false;

  std::thread poll_thread_;
  std::vector<std::thread> executors_;
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
