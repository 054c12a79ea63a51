#include "serve/service.hpp"

#include <algorithm>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "policy/auto_solver.hpp"
#include "util/timer.hpp"

namespace bpm::serve {
namespace {

/// Registered at construction, so `metrics` lists each from zero.
constexpr const char* kCounters[] = {
    "serve.submitted", "serve.accepted",   "serve.rejected",
    "serve.completed", "serve.failed",     "serve.expired",
    "serve.cache_hits", "serve.dispatches", "serve.evicted_tickets"};
constexpr const char* kHistograms[] = {
    "serve.latency_ms", "serve.queue_ms", "serve.service_ms",
    "serve.admit_ms", "serve.load_read_ms"};
/// Prefix of the per-solver histograms behind `solver_stats()`.
constexpr std::string_view kSolverMs = "serve.solver_ms.";

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

std::uint64_t ms_to_us(double ms) {
  return ms <= 0.0 ? 0 : static_cast<std::uint64_t>(ms * 1000.0);
}

}  // namespace

MatchingService::MatchingService(ServiceOptions options)
    : options_(std::move(options)),
      engine_(std::make_shared<device::Engine>(options_.device_threads)),
      store_(options_.store_bytes) {
  for (const char* name : kCounters) metrics_.counter(name);
  for (const char* name : kHistograms) metrics_.histogram(name);
  tracer_.store(options_.tracer, std::memory_order_release);

  unsigned workers = options_.workers;
  if (workers == 0) {
    workers = std::thread::hardware_concurrency();
    if (workers == 0) workers = 1;
  }
  workers_.reserve(workers);
  for (unsigned w = 0; w < workers; ++w)
    workers_.emplace_back([this] { worker_loop(); });
}

MatchingService::~MatchingService() { shutdown(); }

InstanceStore::AddResult MatchingService::add_instance(
    std::string name, graph::BipartiteGraph graph) {
  const Timer timer;
  InstanceStore::AddResult added =
      store_.add(std::move(name), std::move(graph));
  metrics_.histogram("serve.admit_ms").observe(timer.elapsed_ms());
  return added;
}

Submission MatchingService::submit(Request request) {
  Submission out;
  // Instantiate outside the lock: spec validation (unknown name, unknown
  // or malformed option) is the expensive, throwing part.
  std::unique_ptr<Solver> solver;
  std::string canonical;
  std::string reject;
  try {
    solver = request.spec.instantiate();
    canonical = request.spec.canonical();
  } catch (const std::exception& e) {
    reject = e.what();
  }
  // The pin keeps the instance in the store until the request completes;
  // taking it is the one check, so an eviction cannot slip in between.
  std::shared_ptr<const PipelineInstance> pin;
  if (reject.empty() && !(pin = store_.pin(request.instance)))
    reject = (store_.evicted(request.instance) ? "evicted instance handle "
                                               : "unknown instance handle ") +
             std::to_string(request.instance);

  const std::unique_lock lock(mutex_);
  metrics_.counter("serve.submitted").inc();
  if (reject.empty() && !accepting_) reject = "service is shutting down";
  if (reject.empty() && queue_.size() >= options_.queue_depth)
    reject = "admission queue full (depth " +
             std::to_string(options_.queue_depth) + ")";
  if (!reject.empty()) {
    metrics_.counter("serve.rejected").inc();
    out.reason = std::move(reject);
    return out;
  }

  auto queued = std::make_unique<Queued>();
  queued->ticket = next_ticket_++;
  queued->instance = request.instance;
  queued->pin = std::move(pin);
  queued->priority = request.priority;
  queued->deadline_ms = request.deadline_ms;
  queued->canonical = std::move(canonical);
  queued->solver = std::move(solver);
  queued->submitted = std::chrono::steady_clock::now();

  Pending& pending = pending_[queued->ticket];
  pending.future = pending.promise.get_future().share();

  out.accepted = true;
  out.ticket = queued->ticket;
  out.future = pending.future;
  metrics_.counter("serve.accepted").inc();
  queue_.push_back(std::move(queued));
  work_cv_.notify_one();
  return out;
}

std::unique_ptr<MatchingService::Queued>
MatchingService::take_best_locked() {
  // One scan, one erase: the queue can be deep (load benches size it to a
  // whole burst) and this runs under the service mutex.
  const auto best = std::min_element(
      queue_.begin(), queue_.end(),
      [](const std::unique_ptr<Queued>& a, const std::unique_ptr<Queued>& b) {
        if (a->priority != b->priority) return a->priority > b->priority;
        return a->ticket < b->ticket;  // FIFO within a priority level
      });
  std::unique_ptr<Queued> q = std::move(*best);
  queue_.erase(best);
  return q;
}

void MatchingService::serve_one(Queued& q) {
  const PipelineInstance& inst = *q.pin;
  obs::Tracer* const tracer = tracer_.load(std::memory_order_acquire);
  auto dispatch_sp = obs::span(tracer, "dispatch", "serve");
  if (dispatch_sp) {
    dispatch_sp.arg("instance", inst.name);
    dispatch_sp.arg("ticket", static_cast<std::int64_t>(q.ticket));
  }
  Response r;
  r.queue_ms = ms_since(q.submitted);
  r.instance_name = inst.name;
  const bool expired = q.deadline_ms > 0.0 && r.queue_ms > q.deadline_ms;
  if (expired) {
    r.ok = false;
    r.error = "deadline expired: queued " + std::to_string(r.queue_ms) +
              " ms of a " + std::to_string(q.deadline_ms) + " ms budget";
  } else {
    // Dispatch-time policy resolution: an `auto` request becomes the
    // concrete spec the cost model picks for *this* instance's features,
    // before the cache probe — so a resolved auto request shares cache
    // entries with explicit traffic on the same concrete spec.  A
    // resolution failure (e.g. a stale model naming an unregistered spec)
    // keeps the AutoSolver in place; its own run() re-resolves and
    // run_verified turns any throw into a failed response.
    if (auto* as = dynamic_cast<policy::AutoSolver*>(q.solver.get())) {
      try {
        policy::AutoSolver::Resolved resolved = as->resolve(inst.features);
        q.resolved_from = std::move(q.canonical);
        q.canonical = resolved.spec.canonical();
        q.solver = std::move(resolved.solver);
      } catch (const std::exception&) {
      }
    }
    // Lazy stream via run_admitted_job's provider: a cache hit opens no
    // stream on the engine.
    std::optional<device::Device> stream;
    const std::function<device::Device&()> provider =
        [&]() -> device::Device& {
      if (!stream) {
        stream.emplace(engine_);
        if (tracer != nullptr) stream->set_tracer(tracer);
      }
      return *stream;
    };
    PipelineOptions run;
    run.tracer = tracer;
    AdmittedJobResult result =
        run_admitted_job({&inst, q.solver.get(), q.canonical}, provider,
                         options_.cache.get(), run);
    // Retire the stream (folding its launches into the engine odometer)
    // before the response is delivered: a client that sees its future
    // ready must also see the work in engine_stats().
    stream.reset();
    r.stats = std::move(result.outcome.stats);
    r.ok = result.outcome.ok;
    r.error = std::move(result.outcome.error);
    r.cached = result.cached;
    r.service_ms = result.solve_ms;
  }

  if (expired) metrics_.counter("serve.expired").inc();
  if (r.cached) metrics_.counter("serve.cache_hits").inc();
  metrics_.counter("serve.dispatches").inc();
  // Close the dispatch span before the response is delivered: a client
  // that sees its future ready must also see the dispatch in the trace,
  // and may stop (or destroy) the tracer as soon as it does.
  dispatch_sp.end();
  complete(q, std::move(r));
}

void MatchingService::complete(Queued& q, Response&& response) {
  response.ticket = q.ticket;
  response.instance = q.instance;
  response.solver = q.canonical;
  response.resolved_from = q.resolved_from;
  response.total_ms = ms_since(q.submitted);

  metrics_.histogram("serve.latency_ms").observe(response.total_ms);
  metrics_.histogram("serve.queue_ms").observe(response.queue_ms);
  if (response.service_ms > 0.0)
    metrics_.histogram("serve.service_ms").observe(response.service_ms);
  // Per-solver latency table: solved requests only (cache hits report a
  // zero service time that would poison the mean), keyed by the resolved
  // solver's registry name, so auto traffic is judged under its concrete
  // picks and option values a client varies cannot grow the table.
  if (response.ok && !response.cached && response.service_ms > 0.0)
    metrics_.histogram(std::string(kSolverMs) + q.solver->name())
        .observe(response.service_ms);

  // The ticket's admission→dispatch→complete lifecycle, reconstructed
  // from the measured waits now that they are known: a "request" span over
  // the whole submission→completion interval with its "queued" prefix and
  // "service" suffix as children (the gap between them is dispatch
  // screening + cache probing).  Recorded on the completing worker's row.
  if (obs::Tracer* tracer = tracer_.load(std::memory_order_acquire);
      tracer != nullptr && tracer->enabled()) {
    const std::uint64_t end = tracer->now_us();
    const std::uint64_t total = std::min(end, ms_to_us(response.total_ms));
    const std::uint64_t start = end - total;
    std::string args = obs::arg_json(
        "ticket", static_cast<std::int64_t>(response.ticket));
    args += ',';
    args += obs::arg_json("solver", std::string_view(response.solver));
    if (!response.resolved_from.empty()) {
      args += ',';
      args += obs::arg_json("resolved_from",
                            std::string_view(response.resolved_from));
    }
    args += ',';
    args += obs::arg_json("ok", std::string_view(response.ok ? "yes" : "no"));
    if (response.cached) {
      args += ',';
      args += obs::arg_json("cached", std::string_view("yes"));
    }
    tracer->complete("request", "serve", start, total, std::move(args));
    tracer->complete("queued", "serve", start,
                     std::min(total, ms_to_us(response.queue_ms)),
                     obs::arg_json("ticket",
                                   static_cast<std::int64_t>(response.ticket)));
    if (response.service_ms > 0.0) {
      const std::uint64_t service = std::min(total,
                                             ms_to_us(response.service_ms));
      tracer->complete("service", "serve", end - service, service,
                       obs::arg_json(
                           "ticket",
                           static_cast<std::int64_t>(response.ticket)));
    }
  }

  // Unpin before delivery: a client that sees its future ready may rely
  // on the instance being evictable again.  The store never evicts a
  // pinned instance, so this never frees it.
  q.pin.reset();
  // Counted under the lock `stats()` reads under, and before delivery: a
  // client that sees its future ready sees its completion counted.
  const std::unique_lock lock(mutex_);
  metrics_.counter("serve.completed").inc();
  if (!response.ok) metrics_.counter("serve.failed").inc();
  pending_.at(q.ticket).promise.set_value(std::move(response));
  // Ledger GC: evict the oldest completed tickets beyond the retention
  // bound, so a month-long submit loop holds bounded memory.  Futures a
  // client already holds stay valid (shared state outlives the map entry).
  completed_order_.push_back(q.ticket);
  while (completed_order_.size() > options_.completed_ticket_retention) {
    pending_.erase(completed_order_.front());
    completed_order_.pop_front();
    metrics_.counter("serve.evicted_tickets").inc();
  }
}

void MatchingService::worker_loop() {
  while (true) {
    std::unique_ptr<Queued> q;
    {
      std::unique_lock lock(mutex_);
      work_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping, nothing left to serve
      q = take_best_locked();
      ++in_flight_;
    }

    serve_one(*q);

    {
      const std::unique_lock lock(mutex_);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) idle_cv_.notify_all();
    }
  }
}

Response MatchingService::evicted_response(std::uint64_t ticket) const {
  Response r;
  r.ticket = ticket;
  r.ok = false;
  r.evicted = true;
  r.error = "ticket " + std::to_string(ticket) +
            " expired from the completed-ticket ledger (retention " +
            std::to_string(options_.completed_ticket_retention) + ")";
  return r;
}

std::optional<Response> MatchingService::poll(std::uint64_t ticket) const {
  std::shared_future<Response> future;
  {
    const std::unique_lock lock(mutex_);
    const auto it = pending_.find(ticket);
    if (it == pending_.end()) {
      if (ticket == 0 || ticket >= next_ticket_)
        throw std::invalid_argument("unknown ticket " +
                                    std::to_string(ticket));
      // Issued once (tickets are sequential) but gone from the ledger.
      return evicted_response(ticket);
    }
    future = it->second.future;
  }
  if (future.wait_for(std::chrono::seconds(0)) != std::future_status::ready)
    return std::nullopt;
  return future.get();
}

Response MatchingService::wait(std::uint64_t ticket) const {
  std::shared_future<Response> future;
  {
    const std::unique_lock lock(mutex_);
    const auto it = pending_.find(ticket);
    if (it == pending_.end()) {
      if (ticket == 0 || ticket >= next_ticket_)
        throw std::invalid_argument("unknown ticket " +
                                    std::to_string(ticket));
      return evicted_response(ticket);
    }
    future = it->second.future;
  }
  return future.get();
}

void MatchingService::drain() {
  std::unique_lock lock(mutex_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
}

void MatchingService::shutdown() {
  {
    const std::unique_lock lock(mutex_);
    accepting_ = false;
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_)
    if (worker.joinable()) worker.join();
}

std::vector<SolverLatency> MatchingService::solver_stats() const {
  std::vector<SolverLatency> out;
  // Sorted by name, so by solver.  A histogram is registered just before its
  // first sample: skip one caught in between.
  for (const auto& [name, h] : metrics_.histogram_snapshots())
    if (name.starts_with(kSolverMs) && h.count > 0)
      out.push_back({.solver = name.substr(kSolverMs.size()),
                     .count = h.count,
                     .mean_ms = h.mean(),
                     .p90_ms = h.percentile(90.0)});
  return out;
}

ServiceStats MatchingService::stats() const {
  const std::unique_lock lock(mutex_);
  const std::map<std::string, std::uint64_t> c = metrics_.counter_values();
  return {.submitted = c.at("serve.submitted"),
          .accepted = c.at("serve.accepted"),
          .rejected = c.at("serve.rejected"),
          .completed = c.at("serve.completed"),
          .failed = c.at("serve.failed"),
          .expired = c.at("serve.expired"),
          .cache_hits = c.at("serve.cache_hits"),
          .dispatches = c.at("serve.dispatches"),
          .evicted_tickets = c.at("serve.evicted_tickets"),
          .queued = queue_.size(),
          .in_flight = in_flight_,
          .tickets_retained = pending_.size()};
}

std::string MatchingService::metrics_json() {
  const ServiceStats s = stats();
  const auto set = [&](const char* name, double value) {
    metrics_.gauge(name).set(value);
  };
  set("serve.queue_depth", static_cast<double>(s.queued));
  set("serve.in_flight", static_cast<double>(s.in_flight));
  set("serve.tickets_retained", static_cast<double>(s.tickets_retained));
  const StoreStats store = store_.stats();
  set("serve.store_bytes", static_cast<double>(store.bytes));
  set("serve.evicted", static_cast<double>(store.evicted));
  // `ResultCache` hits as a fraction of completions.
  set("serve.cache_hit_rate",
      s.completed > 0 ? static_cast<double>(s.cache_hits) /
                            static_cast<double>(s.completed)
                      : 0.0);
  if (options_.cache) {
    const CacheStats c = options_.cache->stats();
    set("serve.cache_bytes", static_cast<double>(c.bytes));
    set("serve.cache_entries", static_cast<double>(c.entries));
  }
  // One dispatch that solves opens one stream, so streams opened is the
  // engine's dispatch count.
  const device::EngineStats e = engine_->stats();
  set("serve.engine.0.dispatches", static_cast<double>(e.streams_opened));
  set("serve.engine.0.launches", static_cast<double>(e.launches));
  metrics_.set_info("serve.engine.0", engine_->descriptor().summary());
  return metrics_.snapshot_json();
}

}  // namespace bpm::serve
