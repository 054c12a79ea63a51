// serve::SocketTransport + serve::LineClient (src/serve/): the socket
// layer multiplexing N concurrent clients onto one MatchingService.
// Under test: end-to-end request/response over real TCP, concurrent
// client correctness, per-connection quota and auth enforcement, the
// per-connection line budget (terminated and unterminated oversized
// input), the malformed-input never-crash guarantee over the wire, the
// `stats` per-client accounting lines, and clean shutdown — both by a
// client's `shutdown` command and by stop() mid-connection — and the
// one-thread-per-connection properties: a client that never reads is held
// back by TCP backpressure, and blocked `wait`s stall no other client.

#include <arpa/inet.h>
#include <fcntl.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "serve/service.hpp"
#include "serve/session.hpp"
#include "serve/transport.hpp"
#include "sleep_solver.hpp"

namespace bpm::serve {
namespace {

[[maybe_unused]] const bool kSleepRegistered =
    (test_support::register_sleep_solver(), true);

ServiceOptions tiny_service_options() {
  ServiceOptions opt;
  opt.workers = 2;
  opt.queue_depth = 256;
  return opt;
}

/// Service + context + transport on an ephemeral port, torn down in
/// reverse order.
struct Server {
  explicit Server(TransportOptions topt = TransportOptions(),
                  ServiceOptions sopt = tiny_service_options())
      : service(sopt),
        context(service),
        transport(context, std::move(topt)) {}
  ~Server() {
    transport.stop();
    service.shutdown();
  }
  MatchingService service;
  SessionContext context;
  SocketTransport transport;

  [[nodiscard]] LineClient client() const {
    return LineClient("127.0.0.1", transport.port());
  }
};

TEST(ServeTransport, EndToEndRequestResponse) {
  Server server;
  LineClient client = server.client();
  client.send_line("gen a planted 60 1.0 5");
  auto line = client.recv_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_TRUE(line->starts_with("instance a handle="));

  client.send_line("submit a hk");
  line = client.recv_line();
  ASSERT_TRUE(line.has_value());
  ASSERT_TRUE(line->starts_with("ticket "));
  client.send_line("wait " + line->substr(7));
  line = client.recv_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_TRUE(line->starts_with("result ticket="));
  EXPECT_NE(line->find(" ok=1 "), std::string::npos);
  EXPECT_NE(line->find(" cardinality=60 "), std::string::npos);

  client.send_line("metrics");
  line = client.recv_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_TRUE(line->starts_with("{"));  // registry snapshot JSON

  // stats: service lines, then per-client accounting, then the
  // `transport ...` summary LAST.
  client.send_line("stats");
  bool saw_client_line = false;
  std::optional<std::string> summary;
  for (std::optional<std::string> l; (l = client.recv_line());) {
    if (l->starts_with("client id=")) saw_client_line = true;
    if (l->starts_with("transport ")) {
      summary = *l;
      break;
    }
  }
  EXPECT_TRUE(saw_client_line);
  ASSERT_TRUE(summary.has_value());
  EXPECT_NE(summary->find("open=1"), std::string::npos);
  EXPECT_NE(summary->find("accepted=1"), std::string::npos);
}

TEST(ServeTransport, ConcurrentClientsAllCorrect) {
  Server server;
  {
    LineClient setup = server.client();
    setup.send_line("gen g1 planted 80 1.0 3");
    setup.send_line("gen g2 planted 50 0.5 4");
    ASSERT_TRUE(setup.recv_line().has_value());
    ASSERT_TRUE(setup.recv_line().has_value());
  }
  constexpr int kClients = 6;
  constexpr int kRounds = 4;
  std::atomic<int> good{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c)
    threads.emplace_back([&, c] {
      LineClient client = server.client();
      for (int r = 0; r < kRounds; ++r) {
        const bool first = (c + r) % 2 == 0;
        const std::string instance = first ? "g1" : "g2";
        const std::string cardinality = first ? "cardinality=80" :
                                                "cardinality=50";
        client.send_line("submit " + instance +
                         ((c + r) % 3 == 0 ? " hk" : " g-pr-shr"));
        const auto ticket = client.recv_line();
        if (!ticket || !ticket->starts_with("ticket ")) return;
        client.send_line("wait " + ticket->substr(7));
        const auto result = client.recv_line();
        if (result && result->find(" ok=1 ") != std::string::npos &&
            result->find(cardinality) != std::string::npos)
          good.fetch_add(1, std::memory_order_relaxed);
      }
    });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(good.load(), kClients * kRounds);
  const TransportStats stats = server.transport.stats();
  EXPECT_EQ(stats.accepted, kClients + 1u);
  EXPECT_EQ(stats.errors, 0u);
}

TEST(ServeTransport, QuotaRejectionOverSocket) {
  TransportOptions topt;
  topt.session.quota = 3;
  Server server(topt);
  LineClient client = server.client();
  // drain answers a single line, so quota accounting is easy to count.
  for (int i = 0; i < 3; ++i) {
    client.send_line("drain");
    const auto line = client.recv_line();
    ASSERT_TRUE(line.has_value());
    EXPECT_EQ(*line, "drained");
  }
  client.send_line("drain");
  const auto line = client.recv_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_TRUE(line->starts_with("error code=quota-exceeded")) << *line;

  const std::vector<TransportClientStats> clients =
      server.transport.client_stats();
  ASSERT_EQ(clients.size(), 1u);
  EXPECT_EQ(clients[0].requests, 3u);
  EXPECT_EQ(clients[0].quota_rejections, 1u);
  EXPECT_EQ(clients[0].quota, 3u);
}

TEST(ServeTransport, ClosedClientsFoldIntoTheTransportTotals) {
  // A closed connection leaves no `client` line behind; its requests,
  // errors and quota rejections live on in the `transport` summary.
  TransportOptions topt;
  topt.session.quota = 1;
  Server server(topt);
  constexpr std::uint64_t kClosed = 50;
  for (std::uint64_t i = 0; i < kClosed; ++i) {
    LineClient client = server.client();
    client.send_line("drain");  // the quota's one request
    ASSERT_EQ(client.recv_line(), "drained");
    client.send_line("drain");  // over the quota: an error
    const auto line = client.recv_line();
    ASSERT_TRUE(line && line->starts_with("error code=quota-exceeded"));
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.transport.stats().closed < kClosed &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));

  LineClient client = server.client();
  client.send_line("stats");
  std::size_t client_lines = 0;
  std::optional<std::string> summary;
  for (std::optional<std::string> l; (l = client.recv_line());) {
    if (l->starts_with("client id=")) ++client_lines;
    if (l->starts_with("transport ")) {
      summary = *l;
      break;
    }
  }
  EXPECT_EQ(client_lines, 1u);
  ASSERT_TRUE(summary.has_value());
  for (const std::string field :
       {" open=1 ", " closed=50 ", " errors=50 ", " requests=51 ",
        " quota_rejected=50"})
    EXPECT_NE(summary->find(field), std::string::npos) << *summary;
  EXPECT_EQ(server.transport.client_stats().size(), 1u);
  const TransportStats stats = server.transport.stats();
  EXPECT_EQ(stats.closed, kClosed);
  EXPECT_EQ(stats.errors, kClosed);
  EXPECT_EQ(stats.quota_rejections, kClosed);
}

TEST(ServeTransport, AuthRequiredOverSocket) {
  TransportOptions topt;
  topt.session.auth_token = "hunter2";
  Server server(topt);
  LineClient client = server.client();
  client.send_line("drain");
  auto line = client.recv_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_TRUE(line->starts_with("error code=unauthorized"));
  client.send_line("auth wrong");
  line = client.recv_line();
  EXPECT_TRUE(line->starts_with("error code=unauthorized"));
  client.send_line("auth hunter2");
  line = client.recv_line();
  EXPECT_EQ(*line, "ok auth");
  client.send_line("drain");
  line = client.recv_line();
  EXPECT_EQ(*line, "drained");
}

TEST(ServeTransport, OversizedTerminatedLineAnswersErrorAndCloses) {
  TransportOptions topt;
  topt.session.limits.max_line_bytes = 128;
  Server server(topt);
  LineClient client = server.client();
  client.send_line("submit " + std::string(300, 'a') + " hk");
  const auto line = client.recv_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_TRUE(line->starts_with("error code=line-too-long")) << *line;
  // The session ended: the server closes after flushing the error.
  EXPECT_FALSE(client.recv_line(2000).has_value());
}

TEST(ServeTransport, OversizedUnterminatedLineAnswersErrorAndCloses) {
  TransportOptions topt;
  topt.session.limits.max_line_bytes = 128;
  Server server(topt);
  LineClient client = server.client();
  // No newline ever arrives — the transport must not buffer forever.
  client.send_raw(std::string(4096, 'x'));
  const auto line = client.recv_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_TRUE(line->starts_with("error code=line-too-long")) << *line;
  EXPECT_FALSE(client.recv_line(2000).has_value());
}

TEST(ServeTransport, MalformedCorpusOverSocketThenStillAlive) {
  Server server;
  LineClient client = server.client();
  const char* corpus[] = {
      "submit foo g-pr prio=abc",
      "gen broken uniform -5 10 100 1",
      "gen broken planted 10 1e300 1",
      "poll 184467440737095516150",
      "wait not-a-ticket",
      "submit",
      "unknown-command a b c",
      "load broken /nonexistent/file.mtx",
      "trace-dump",
      "gen x huge 10 10 4.0 1.5 10 1",
  };
  for (const char* probe : corpus) {
    client.send_line(probe);
    const auto line = client.recv_line();
    ASSERT_TRUE(line.has_value()) << probe;
    EXPECT_TRUE(line->starts_with("error ")) << *line;
  }
  // Same connection still serves valid work.
  client.send_line("gen ok planted 30 0.0 2");
  auto line = client.recv_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_TRUE(line->starts_with("instance ok"));
  client.send_line("submit ok hk");
  line = client.recv_line();
  ASSERT_TRUE(line && line->starts_with("ticket "));
  client.send_line("wait " + line->substr(7));
  line = client.recv_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_NE(line->find("cardinality=30"), std::string::npos);
  EXPECT_EQ(server.transport.stats().errors, std::size(corpus));
}

TEST(ServeTransport, ShutdownCommandUnblocksWaitShutdown) {
  Server server;
  std::atomic<bool> unblocked{false};
  std::thread waiter([&] {
    server.transport.wait_shutdown();
    unblocked.store(true);
  });
  LineClient client = server.client();
  client.send_line("gen a planted 20 0.0 1");
  ASSERT_TRUE(client.recv_line().has_value());
  client.send_line("shutdown");
  const auto line = client.recv_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(*line, "ok shutdown");
  waiter.join();
  EXPECT_TRUE(unblocked.load());
  EXPECT_TRUE(server.transport.shutdown_requested());
}

TEST(ServeTransport, StopMidConnectionIsCleanAndPrompt) {
  auto server = std::make_unique<Server>();
  LineClient client = server->client();
  client.send_line("gen a planted 20 0.0 1");
  ASSERT_TRUE(client.recv_line().has_value());
  // Leave a half-written line in the server's input buffer, then stop.
  client.send_raw("submit a h");
  const auto begin = std::chrono::steady_clock::now();
  server->transport.stop();
  const auto took = std::chrono::steady_clock::now() - begin;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(took)
                .count(),
            5000);
  // The client observes EOF, not a hang.
  EXPECT_FALSE(client.recv_line(2000).has_value());
  server.reset();  // double-stop via the destructor must be a no-op
}

TEST(ServeTransport, RefusesConnectionsOverMaxClients) {
  TransportOptions topt;
  topt.max_clients = 1;
  Server server(topt);
  LineClient first = server.client();
  first.send_line("drain");
  ASSERT_TRUE(first.recv_line().has_value());  // fully admitted
  LineClient second = server.client();
  const auto line = second.recv_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_TRUE(line->starts_with("error code=unavailable")) << *line;
  EXPECT_FALSE(second.recv_line(2000).has_value());  // then closed
  // The admitted client is unaffected.
  first.send_line("drain");
  const auto again = first.recv_line();
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(*again, "drained");
}

TEST(ServeTransport, PipelinedCommandsAnswerInOrder) {
  Server server;
  LineClient client = server.client();
  // One write, many commands: strict per-connection FIFO responses.
  client.send_raw("gen a planted 40 0.0 9\nsubmit a hk\nwait 1\ndrain\n");
  auto line = client.recv_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_TRUE(line->starts_with("instance a"));
  line = client.recv_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_TRUE(line->starts_with("ticket 1"));
  line = client.recv_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_TRUE(line->starts_with("result ticket=1"));
  EXPECT_NE(line->find("cardinality=40"), std::string::npos);
  line = client.recv_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(*line, "drained");
}

TEST(ServeTransport, AClientThatNeverReadsIsHeldBackByBackpressure) {
  // Pipelined `stats` lines, never a read: the server must stop taking
  // bytes once the replies back up, instead of buffering without bound.
  Server server;
  LineClient probe = server.client();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.transport.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_EQ(::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK), 0);

  constexpr std::size_t kCap = std::size_t{32} << 20;
  std::string chunk;
  while (chunk.size() < 60000) chunk += "stats\n";
  std::size_t sent = 0;
  bool blocked = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (sent < kCap && std::chrono::steady_clock::now() < deadline) {
    const ssize_t n = ::send(fd, chunk.data(), chunk.size(), MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Full for a while, not a momentary dip while the server reads.
      pollfd p{fd, POLLOUT, 0};
      if (::poll(&p, 1, 500) == 0) {
        blocked = true;
        break;
      }
      continue;
    }
    ASSERT_TRUE(n < 0 && errno == EINTR) << std::strerror(errno);
  }
  EXPECT_TRUE(blocked) << sent << " bytes sent without backpressure";
  EXPECT_LT(sent, kCap);
  ::close(fd);

  // Other clients are unaffected.
  probe.send_line("drain");
  EXPECT_EQ(probe.recv_line(), "drained");
}

TEST(ServeTransport, BlockedWaitsDoNotStallOtherClients) {
  // Four clients block in `wait` on solves that sleep 3 s; a fifth
  // client's `stats` still answers at once.
  ServiceOptions sopt = tiny_service_options();
  sopt.workers = 4;
  Server server(TransportOptions(), sopt);
  {
    LineClient setup = server.client();
    setup.send_line("gen a planted 20 0.0 1");
    ASSERT_TRUE(setup.recv_line().has_value());
  }
  std::vector<std::unique_ptr<LineClient>> waiters;
  for (int i = 0; i < 4; ++i) {
    auto& w = waiters.emplace_back(
        std::make_unique<LineClient>("127.0.0.1", server.transport.port()));
    w->send_line("submit a test-sleep:ms=3000");
    const auto ticket = w->recv_line();
    ASSERT_TRUE(ticket && ticket->starts_with("ticket "));
    w->send_line("wait " + ticket->substr(7));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  LineClient fifth = server.client();
  const auto begin = std::chrono::steady_clock::now();
  fifth.send_line("stats");
  std::optional<std::string> summary;
  for (std::optional<std::string> l; (l = fifth.recv_line(1000));)
    if (l->starts_with("transport ")) {
      summary = *l;
      break;
    }
  const auto took = std::chrono::steady_clock::now() - begin;
  ASSERT_TRUE(summary.has_value()) << "stats did not answer within 1 s";
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(took)
                .count(),
            1000);
  EXPECT_NE(summary->find("open=5"), std::string::npos) << *summary;

  for (const auto& w : waiters) {
    const auto result = w->recv_line(10000);
    ASSERT_TRUE(result.has_value());
    EXPECT_NE(result->find(" ok=1 "), std::string::npos) << *result;
  }
}

}  // namespace
}  // namespace bpm::serve
