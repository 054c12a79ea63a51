#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.hpp"
#include "serve/proto.hpp"
#include "serve/service.hpp"

namespace bpm::serve {

/// State shared by every protocol session of one serving process: the
/// service itself plus the process's trace recorder (`trace-start` /
/// `trace-dump` act on it from any session, serialized by the mutex).
/// Declared before (so destructed after) any transport or session that
/// points into it.
struct SessionContext {
  explicit SessionContext(MatchingService& s) : service(s) {}

  MatchingService& service;
  std::mutex trace_mutex;
  obs::Tracer tracer;
  std::string trace_path;  ///< where trace-dump writes; set by trace-start
};

/// One client's view of the protocol: decodes lines against the
/// `proto` schema, enforces the client's auth token and request quota,
/// and executes commands against the shared service.  `execute` NEVER
/// throws — every malformed line, unknown instance, out-of-range number,
/// or I/O failure becomes an `error ...` response line, so no input a
/// client can send terminates the serving process.
///
/// A Session is single-threaded (one command at a time); concurrency
/// comes from running many sessions — the stdin driver runs one, the
/// socket transport one per connection — against the thread-safe service.
class Session {
 public:
  struct Options {
    /// Clients must `auth <token>` before anything else; empty disables.
    std::string auth_token;
    /// Commands this session may execute (auth and comments are free);
    /// 0 = unlimited.  Exhausted quota answers `error code=quota-exceeded`.
    std::uint64_t quota = 0;
    proto::Limits limits;
  };

  /// What one executed line produced.
  struct Outcome {
    std::vector<std::string> lines;  ///< response lines, in order
    bool shutdown = false;  ///< client asked the whole process to stop
    bool close = false;     ///< end this session (oversized line)
    /// The line was a `stats` command — a transport appends its
    /// per-client accounting lines after the service's.
    bool stats = false;
  };

  explicit Session(SessionContext& context) : Session(context, Options()) {}
  Session(SessionContext& context, Options options)
      : context_(context), options_(std::move(options)) {}

  /// Executes one protocol line.  Never throws.
  [[nodiscard]] Outcome execute(std::string_view line);

  // Per-session accounting.  Atomics because a transport's `stats`
  // command reads every session's counters from whichever executor
  // thread serves it, concurrently with the owning thread updating them.
  [[nodiscard]] std::uint64_t requests() const {
    return requests_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t errors() const {
    return errors_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t quota_rejections() const {
    return quota_rejections_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] bool authed() const {
    return authed_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const Options& options() const { return options_; }

 private:
  void dispatch(const proto::Command& command, Outcome& out);
  void error(Outcome& out, proto::ErrorCode code, std::string message);
  /// Registers `g` with the service (fingerprint, initial matching,
  /// features) under a `span_name` span, timed into `serve.admit_ms`,
  /// and answers the `instance ...` line.
  void admit(std::string_view span_name, const std::string& name,
             graph::BipartiteGraph g, Outcome& out);

  // One handler per typed request.
  void handle(const proto::AuthRequest&, Outcome&);
  void handle(const proto::LoadRequest&, Outcome&);
  void handle(const proto::GenRequest&, Outcome&);
  void handle(const proto::SubmitRequest&, Outcome&);
  void handle(const proto::PollRequest&, Outcome&);
  void handle(const proto::WaitRequest&, Outcome&);
  void handle(const proto::DrainRequest&, Outcome&);
  void handle(const proto::StatsRequest&, Outcome&);
  void handle(const proto::MetricsRequest&, Outcome&);
  void handle(const proto::PolicyRequest&, Outcome&);
  void handle(const proto::TraceStartRequest&, Outcome&);
  void handle(const proto::TraceDumpRequest&, Outcome&);
  void handle(const proto::SaveCacheRequest&, Outcome&);
  void handle(const proto::LoadCacheRequest&, Outcome&);
  void handle(const proto::ShutdownRequest&, Outcome&);

  SessionContext& context_;
  Options options_;
  std::atomic<bool> authed_{false};
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> errors_{0};
  std::atomic<std::uint64_t> quota_rejections_{0};
};

}  // namespace bpm::serve
