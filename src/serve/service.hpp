#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.hpp"
#include "core/solver.hpp"
#include "device/device.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/instance_store.hpp"
#include "serve/result_cache.hpp"

namespace bpm::serve {

/// One asynchronous matching request: which admitted graph, which solver
/// configuration, and how urgently.
struct Request {
  /// Handle from `MatchingService::instances()`.  `submit` pins the
  /// instance, so the store cannot evict it until the request completes.
  std::size_t instance = 0;
  SolverSpec spec;
  /// Dispatch order: every queued request is served strictly by priority
  /// (higher first), ties FIFO by admission order.
  int priority = 0;
  /// Milliseconds from submission after which the request must not start
  /// solving anymore — checked when a worker dispatches it, which then
  /// completes it with `ok == false` and a "deadline expired" error.  0
  /// disables the deadline.
  double deadline_ms = 0.0;
};

/// The completed request, delivered through the future and `poll`/`wait`.
struct Response {
  std::uint64_t ticket = 0;
  std::size_t instance = 0;
  std::string instance_name;
  std::string solver;  ///< canonical spec
  SolveStats stats;
  bool ok = false;
  bool cached = false;  ///< served from the `ResultCache` without solving
  /// The ticket completed long ago and was evicted from the bounded
  /// completed-ticket ledger (`ServiceOptions::completed_ticket_retention`)
  /// — the result itself is gone; `ok` is false and `error` says so.
  bool evicted = false;
  std::string error;
  /// Provenance when dispatch-time policy resolution rewrote the request:
  /// the spec the client actually asked for ("auto") while `solver`
  /// reports the concrete spec the policy picked.  Empty
  /// for explicit requests.
  std::string resolved_from;
  double queue_ms = 0.0;    ///< admission queue wait
  double service_ms = 0.0;  ///< own solve + verify (0 for cache hits)
  double total_ms = 0.0;    ///< submission to completion
};

/// What `submit` hands back: an accepted request's ticket + future, or the
/// reason admission rejected it (queue full, unknown or evicted instance,
/// malformed spec, shutting down).  Rejection is backpressure, not an
/// exception — load generators and clients are expected to see it under
/// overload.
struct Submission {
  bool accepted = false;
  std::uint64_t ticket = 0;
  std::string reason;  ///< why not, when !accepted
  std::shared_future<Response> future;
};

struct ServiceOptions {
  /// Worker threads = dispatches solving concurrently, each on its own
  /// device stream of the service's one engine (0 = hardware
  /// concurrency).
  unsigned workers = 1;
  unsigned device_threads = 0;  ///< every solver's workers (0 = hardware)
  /// Nothing reads this; ROADMAP item 2 deletes it with its benchmark uses.
  device::Backend backend = device::Backend::kHost;
  /// Admission queue depth; a submit beyond it is rejected with a reason
  /// (bounded memory and latency under overload).
  std::size_t queue_depth = 256;
  /// Byte budget of the instance store (`InstanceStore::instance_bytes`
  /// per instance plus `name_bytes` per name): beyond it the least
  /// recently used instances that no queued or running request pins are
  /// evicted.
  std::size_t store_bytes = InstanceStore::kDefaultBytes;
  /// Result cache shared by all requests; null serves every request by
  /// solving.  Every solved result is verified by certificate
  /// (`run_verified`), and only verified results enter the cache.
  std::shared_ptr<ResultCache> cache;
  /// Completed tickets kept for `poll`/`wait`; beyond it the oldest
  /// completed tickets are evicted (a month-long process must not grow
  /// its ledger forever) and polling them yields a distinct `evicted`
  /// response.  0 keeps none: a result then reaches only the future
  /// `submit` handed back.
  std::size_t completed_ticket_retention = 65536;
  /// Optional trace sink (swappable later via `set_tracer`): every served
  /// ticket records its admission→dispatch→complete lifecycle — a
  /// `"request"` span over submission→completion with nested `"queued"`
  /// and `"service"` intervals, back-computed at completion from the
  /// measured waits — plus one `"dispatch"` span per worker dispatch
  /// (instance, ticket).  Must outlive the service or be cleared with
  /// `set_tracer(nullptr)` first.
  obs::Tracer* tracer = nullptr;
};

/// A read of a service's state.  The lifetime counters are read from the
/// service's registry (`MatchingService::metrics()`), the snapshots under
/// its lock.  Completed = hits + solved + expired + failed-verification;
/// rejected never entered the queue.
struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;   ///< completed with ok == false (any cause)
  std::uint64_t expired = 0;  ///< deadline passed while queued
  std::uint64_t cache_hits = 0;  ///< served from the shared `ResultCache`
  std::uint64_t dispatches = 0;  ///< worker dispatches, one request each
  std::uint64_t evicted_tickets = 0;  ///< completed tickets GC'd
  std::size_t queued = 0;     ///< snapshot: waiting for a worker
  std::size_t in_flight = 0;  ///< snapshot: being served right now
  std::size_t tickets_retained = 0;  ///< snapshot: ledger size (all states)
};

/// Observed wall-time distribution of one resolved solver across the
/// service's lifetime — the per-solver latency table behind `bpm_serve
/// stats`, read from the `serve.solver_ms.<solver>` histogram.  Keyed by
/// registry name, not spec, so the table is bounded by the registry.
/// Count and mean are exact over every solved (non-cached) request; p90 is
/// the histogram's lifetime p90, interpolated inside its bucket.
struct SolverLatency {
  std::string solver;  ///< registry name of the resolved solver (post-policy)
  std::uint64_t count = 0;
  double mean_ms = 0.0;
  double p90_ms = 0.0;
};

/// A long-running matching service: owns one `device::Engine` for its
/// whole lifetime, a fingerprint-deduped, byte-budgeted `InstanceStore`,
/// and (optionally) a persistent `ResultCache`; accepts requests from any
/// number of client threads and schedules them through a bounded,
/// priority-ordered admission queue onto `workers` threads.
///
/// Each worker dispatch takes the one best queued request (highest
/// priority, FIFO within it), checks its deadline, and serves it through
/// the pipeline's `run_admitted_job` seam: a `ResultCache` probe first,
/// then a solve on a device stream of the engine opened only on a miss,
/// so up to `workers` streams share the engine's pool at once.  Repeated
/// (instance, spec) requests are served by the cache.
///
/// ```
/// serve::MatchingService svc({.workers = 4, .cache = cache});
/// auto handle = svc.add_instance("web", std::move(graph)).handle;
/// auto sub = svc.submit({.instance = handle,
///                        .spec = SolverSpec::parse("g-pr-shr:k=1.5")});
/// if (sub.accepted) Response r = sub.future.get();   // or poll(sub.ticket)
/// ```
///
/// Results are bit-identical to a sequential `MatchingPipeline` run of the
/// same (instance, spec) jobs: admission, solving, and verification all go
/// through the same `admit_instance` / `run_admitted_job` /
/// `run_verified` seams regardless of worker count.
///
/// The service owns an `obs::Registry`, the one home of its lifetime
/// counters (`serve.submitted` … `serve.evicted_tickets`) and latency
/// histograms (`serve.latency_ms`, `serve.queue_ms`, `serve.service_ms`,
/// `serve.admit_ms`, `serve.load_read_ms`, `serve.solver_ms.<solver>`), so
/// two services in one process never count into each other.  `stats()`
/// and `solver_stats()` are reads of it.
class MatchingService {
 public:
  explicit MatchingService(ServiceOptions options = {});
  /// Stops admission, completes everything still queued, joins workers.
  ~MatchingService();

  MatchingService(const MatchingService&) = delete;
  MatchingService& operator=(const MatchingService&) = delete;

  /// Registers a graph (deduped by structural fingerprint) and returns its
  /// handle for `Request::instance`; may evict least recently used
  /// instances beyond `ServiceOptions::store_bytes`.  The result pins the
  /// instance while it lives.  Timed into `serve.admit_ms`.
  InstanceStore::AddResult add_instance(std::string name,
                                        graph::BipartiteGraph graph);
  [[nodiscard]] const InstanceStore& instances() const { return store_; }

  /// Admits a request or rejects it with a reason (never blocks on a full
  /// queue — backpressure is the caller's signal to slow down).
  Submission submit(Request request);

  /// Non-blocking completion check: the response once the request is done,
  /// `std::nullopt` while it is queued or solving, a distinct `evicted`
  /// response for a ticket GC'd from the completed-ticket ledger.  Throws
  /// `std::invalid_argument` for a ticket this service never issued.
  [[nodiscard]] std::optional<Response> poll(std::uint64_t ticket) const;

  /// Blocks until the ticket completes.  An evicted ticket returns its
  /// `evicted` response immediately; a never-issued ticket throws
  /// `std::invalid_argument` instead of deadlocking forever.
  [[nodiscard]] Response wait(std::uint64_t ticket) const;

  /// Blocks until the queue is empty and no request is in flight.
  void drain();

  /// Stops accepting, drains, joins the workers.  Idempotent; the
  /// destructor calls it.
  void shutdown();

  [[nodiscard]] ServiceStats stats() const;

  /// Per-solver latency table: one row per resolved solver that has
  /// completed at least one solved (non-cached) request, sorted by name.
  /// `auto` traffic appears under the concrete solvers the policy
  /// resolved it to — this table is what the resolutions are judged by.
  [[nodiscard]] std::vector<SolverLatency> solver_stats() const;

  /// Swaps the trace sink (null detaches).  Takes effect on the next
  /// dispatch; the tracer must outlive every in-flight request recorded
  /// into it.
  void set_tracer(obs::Tracer* tracer) {
    tracer_.store(tracer, std::memory_order_release);
  }
  [[nodiscard]] obs::Tracer* tracer() const {
    return tracer_.load(std::memory_order_acquire);
  }

  /// The service's registry.  Its counters and histograms are written as
  /// the service runs; its gauges only by `metrics_json()`.
  [[nodiscard]] obs::Registry& metrics() { return metrics_; }

  /// Sets the registry's gauges from state with its own home — queue,
  /// ledger, store, cache and this service's engine odometer
  /// (`serve.engine.0.dispatches`, `serve.engine.0.launches`) — then
  /// returns the registry as one JSON document.
  [[nodiscard]] std::string metrics_json();

  [[nodiscard]] const std::shared_ptr<ResultCache>& cache() const {
    return options_.cache;
  }
  /// The engine every dispatch opens its stream on.
  [[nodiscard]] const std::shared_ptr<device::Engine>& engine() const {
    return engine_;
  }
  /// The engine's lifetime aggregates (streams served, launches retired) —
  /// the serving process's device-side odometer.
  [[nodiscard]] device::EngineStats engine_stats() const {
    return engine_->stats();
  }

 private:
  struct Queued {
    std::uint64_t ticket = 0;
    std::size_t instance = 0;
    /// Keeps the instance in the store until `complete` drops it.
    std::shared_ptr<const PipelineInstance> pin;
    int priority = 0;
    double deadline_ms = 0.0;
    std::string canonical;  ///< cache key + reported solver label
    /// The submitted spec when dispatch-time policy resolution replaced
    /// `canonical`/`solver` with a concrete pick (empty otherwise).
    std::string resolved_from;
    std::unique_ptr<Solver> solver;
    std::chrono::steady_clock::time_point submitted;
  };
  struct Pending {
    std::promise<Response> promise;
    std::shared_future<Response> future;
  };

  void worker_loop();
  /// Removes the best queued request (highest priority, FIFO within it).
  /// Caller holds `mutex_`.
  [[nodiscard]] std::unique_ptr<Queued> take_best_locked();
  /// Serves one dispatch: deadline screening, dispatch-time `auto`
  /// resolution, then `run_admitted_job` on a lazily opened engine stream.
  void serve_one(Queued& q);
  void complete(Queued& q, Response&& response);
  [[nodiscard]] Response evicted_response(std::uint64_t ticket) const;

  ServiceOptions options_;
  std::shared_ptr<device::Engine> engine_;
  InstanceStore store_;
  obs::Registry metrics_;
  std::atomic<obs::Tracer*> tracer_{nullptr};

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;  ///< workers: queue non-empty / shutdown
  std::condition_variable idle_cv_;  ///< drain: queue empty and none in flight
  /// Admission queue; scanned for the best request per dispatch — linear
  /// in the bounded queue depth.
  std::vector<std::unique_ptr<Queued>> queue_;
  std::map<std::uint64_t, Pending> pending_;  ///< ticket -> future state
  /// Completed tickets, oldest first — the GC order of the ledger.
  std::deque<std::uint64_t> completed_order_;
  std::uint64_t next_ticket_ = 1;
  std::size_t in_flight_ = 0;
  bool accepting_ = true;
  bool stopping_ = false;

  std::vector<std::thread> workers_;  ///< last member: joins before teardown
};

}  // namespace bpm::serve
