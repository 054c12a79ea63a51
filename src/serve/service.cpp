#include "serve/service.hpp"

#include <algorithm>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "policy/auto_solver.hpp"
#include "util/stats.hpp"

namespace bpm::serve {
namespace {

/// Recent-sample window behind each `SolverLatency::p90_ms` — deep enough
/// for a stable tail estimate, bounded so the table never grows with
/// uptime.
constexpr std::size_t kSolverSampleWindow = 512;

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
      engine_(std::make_shared<device::Engine>(options_.device_threads)) {
  obs::Registry& reg = obs::Registry::global();
  metrics_.submitted = &reg.counter("serve.submitted");
  metrics_.accepted = &reg.counter("serve.accepted");
  metrics_.rejected = &reg.counter("serve.rejected");
  metrics_.completed = &reg.counter("serve.completed");
  metrics_.failed = &reg.counter("serve.failed");
  metrics_.expired = &reg.counter("serve.expired");
  metrics_.cache_hits = &reg.counter("serve.cache_hits");
  metrics_.dispatches = &reg.counter("serve.dispatches");
  metrics_.queue_depth = &reg.gauge("serve.queue_depth");
  metrics_.latency_ms = &reg.histogram("serve.latency_ms");
  metrics_.queue_ms = &reg.histogram("serve.queue_ms");
  metrics_.service_ms = &reg.histogram("serve.service_ms");
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
  return store_.add(std::move(name), std::move(graph));
}

InstanceStore::AddResult MatchingService::add_instance(
    PipelineInstance instance) {
  return store_.add(std::move(instance));
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
  if (reject.empty() && request.instance >= store_.size())
    reject = "unknown instance handle " + std::to_string(request.instance);

  const std::unique_lock lock(mutex_);
  ++stats_.submitted;
  metrics_.submitted->add();
  if (reject.empty() && !accepting_) reject = "service is shutting down";
  if (reject.empty() && queue_.size() >= options_.queue_depth)
    reject = "admission queue full (depth " +
             std::to_string(options_.queue_depth) + ")";
  if (!reject.empty()) {
    ++stats_.rejected;
    metrics_.rejected->add();
    out.reason = std::move(reject);
    return out;
  }

  auto queued = std::make_unique<Queued>();
  queued->ticket = next_ticket_++;
  queued->instance = request.instance;
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
  ++stats_.accepted;
  metrics_.accepted->add();
  queue_.push_back(std::move(queued));
  metrics_.queue_depth->set(static_cast<double>(queue_.size()));
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
  const PipelineInstance& inst = store_.get(q.instance);
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
    run.solver_threads = options_.solver_threads;
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

  {
    const std::unique_lock lock(mutex_);
    if (expired) ++stats_.expired;
    if (r.cached) ++stats_.cache_hits;
    ++stats_.dispatches;
  }
  if (expired) metrics_.expired->add();
  if (r.cached) metrics_.cache_hits->add();
  metrics_.dispatches->add();
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

  metrics_.completed->add();
  if (!response.ok) metrics_.failed->add();
  metrics_.latency_ms->observe(response.total_ms);
  metrics_.queue_ms->observe(response.queue_ms);
  if (response.service_ms > 0.0)
    metrics_.service_ms->observe(response.service_ms);

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

  const std::unique_lock lock(mutex_);
  ++stats_.completed;
  if (!response.ok) ++stats_.failed;
  stats_.queue_ms_total += response.queue_ms;
  stats_.service_ms_total += response.service_ms;
  // Per-solver latency table: solved requests only (cache hits report a
  // zero service time that would poison the mean), keyed by the resolved
  // canonical spec so auto traffic is judged under its concrete picks.
  if (response.ok && !response.cached && response.service_ms > 0.0) {
    SolverObservation& o = solver_observed_[response.solver];
    ++o.count;
    o.total_ms += response.service_ms;
    if (o.recent.size() < kSolverSampleWindow) {
      o.recent.push_back(response.service_ms);
    } else {
      o.recent[o.next] = response.service_ms;
      o.next = (o.next + 1) % kSolverSampleWindow;
    }
  }
  pending_.at(q.ticket).promise.set_value(std::move(response));
  // Ledger GC: evict the oldest completed tickets beyond the retention
  // bound, so a month-long submit loop holds bounded memory.  Futures a
  // client already holds stay valid (shared state outlives the map entry).
  completed_order_.push_back(q.ticket);
  if (options_.completed_ticket_retention > 0) {
    while (completed_order_.size() > options_.completed_ticket_retention) {
      pending_.erase(completed_order_.front());
      completed_order_.pop_front();
      ++stats_.evicted_tickets;
    }
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
      metrics_.queue_depth->set(static_cast<double>(queue_.size()));
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
  const std::unique_lock lock(mutex_);
  std::vector<SolverLatency> out;
  out.reserve(solver_observed_.size());
  for (const auto& [spec, o] : solver_observed_) {  // map: sorted by spec
    SolverLatency row;
    row.spec = spec;
    row.count = o.count;
    row.mean_ms = o.count > 0 ? o.total_ms / static_cast<double>(o.count) : 0.0;
    row.p90_ms = percentile(o.recent, 90.0);
    out.push_back(std::move(row));
  }
  return out;
}

ServiceStats MatchingService::stats() const {
  const std::unique_lock lock(mutex_);
  ServiceStats out = stats_;
  out.queued = queue_.size();
  out.in_flight = in_flight_;
  out.tickets_retained = pending_.size();
  return out;
}

void MatchingService::publish_metrics(obs::Registry& registry) const {
  const ServiceStats s = stats();
  registry.gauge("serve.queue_depth").set(static_cast<double>(s.queued));
  registry.gauge("serve.in_flight").set(static_cast<double>(s.in_flight));
  registry.gauge("serve.tickets_retained")
      .set(static_cast<double>(s.tickets_retained));
  // `ResultCache` hits as a fraction of completions.
  const double completed = static_cast<double>(s.completed);
  registry.gauge("serve.cache_hit_rate")
      .set(completed > 0.0 ? static_cast<double>(s.cache_hits) / completed
                           : 0.0);
  // One dispatch that solves opens one stream, so streams opened is the
  // engine's dispatch count.
  registry.gauge("serve.engine.0.dispatches")
      .set(static_cast<double>(engine_->stats().streams_opened));
  registry.set_info("serve.engine.0", engine_->descriptor().summary());
}

}  // namespace bpm::serve
