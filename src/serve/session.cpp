#include "serve/session.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <variant>

#include "graph/generators.hpp"
#include "graph/instances.hpp"
#include "graph/matrix_market.hpp"
#include "util/timer.hpp"

namespace bpm::serve {

namespace {

using proto::ErrorCode;

/// Throws `std::out_of_range` when `inst` at `scale` asks for more rows,
/// cols or edges than a `gen` request may: the caps the other generator
/// kinds get at decode, checked before anything allocates.
void check_instance_size(const graph::Instance& inst, double scale,
                         const proto::Limits& limits) {
  const double dim_max = static_cast<double>(limits.max_dimension);
  const double rows = std::round(static_cast<double>(inst.paper.rows) * scale);
  const double cols = std::round(static_cast<double>(inst.paper.cols) * scale);
  const double edges = static_cast<double>(inst.paper.edges) * scale;
  if (!(rows <= dim_max && cols <= dim_max &&
        edges <= static_cast<double>(limits.max_edges))) {
    // The decoder bounds scale to 1e4, so every count fits an int64.
    const auto count = [](double v) {
      return std::to_string(static_cast<std::int64_t>(v));
    };
    throw std::out_of_range(
        "instance " + inst.name + " at scale " + std::to_string(scale) +
        " implies " + count(rows) + " x " + count(cols) + " with ~" +
        count(edges) + " edges, caps are " +
        std::to_string(limits.max_dimension) + " per side and " +
        std::to_string(limits.max_edges) + " edges");
  }
}

graph::BipartiteGraph generate(const proto::GenSpec& spec,
                               const proto::Limits& limits) {
  return std::visit(
      [&limits](const auto& g) -> graph::BipartiteGraph {
        using T = std::decay_t<decltype(g)>;
        if constexpr (std::is_same_v<T, proto::GenUniform>) {
          return graph::gen::random_uniform(g.rows, g.cols, g.edges, g.seed);
        } else if constexpr (std::is_same_v<T, proto::GenPlanted>) {
          return graph::gen::planted_perfect(g.n, g.extra_degree, g.seed);
        } else if constexpr (std::is_same_v<T, proto::GenChungLu>) {
          return graph::gen::chung_lu(g.rows, g.cols, g.avg_degree, g.gamma,
                                      g.seed);
        } else if constexpr (std::is_same_v<T, proto::GenInstance>) {
          for (const auto& inst : graph::paper_instances()) {
            if (inst.name != g.paper_name) continue;
            check_instance_size(inst, g.scale, limits);
            return inst.build(g.scale, g.seed);
          }
          throw std::invalid_argument("unknown paper instance '" +
                                      g.paper_name + "'");
        } else {
          static_assert(std::is_same_v<T, proto::GenHuge>);
          return graph::gen::huge_bipartite(g.rows, g.cols, g.avg_degree,
                                            g.hub_fraction, g.hub_every,
                                            g.seed);
        }
      },
      spec);
}

}  // namespace

void Session::error(Outcome& out, ErrorCode code, std::string message) {
  errors_.fetch_add(1, std::memory_order_relaxed);
  out.lines.push_back(
      proto::error_line(proto::ProtoError{code, std::move(message)}));
}

Session::Outcome Session::execute(std::string_view line) {
  Outcome out;
  try {
    proto::Parsed parsed = proto::parse_command(line, options_.limits);
    if (parsed.ignorable()) return out;
    if (parsed.error) {
      errors_.fetch_add(1, std::memory_order_relaxed);
      out.lines.push_back(proto::error_line(*parsed.error));
      // An oversized line means the stream's framing is suspect (the rest
      // may be the tail of the same blob) — end the session.
      out.close = parsed.error->code == ErrorCode::kLineTooLong;
      return out;
    }

    // Auth gates everything but `auth` itself.
    const bool is_auth =
        std::holds_alternative<proto::AuthRequest>(*parsed.command);
    if (!options_.auth_token.empty() && !authed() && !is_auth) {
      error(out, ErrorCode::kUnauthorized,
            "authenticate first: auth <token>");
      return out;
    }
    // Quota covers every authenticated command except `auth`.
    if (!is_auth && options_.quota > 0 && requests() >= options_.quota) {
      quota_rejections_.fetch_add(1, std::memory_order_relaxed);
      error(out, ErrorCode::kQuotaExceeded,
            "request quota of " + std::to_string(options_.quota) +
                " commands exhausted");
      return out;
    }
    if (!is_auth) requests_.fetch_add(1, std::memory_order_relaxed);

    dispatch(*parsed.command, out);
  } catch (const std::exception& e) {
    // A handler leaked an exception the typed paths did not classify —
    // still a protocol error, never a crash.
    error(out, ErrorCode::kInternal, e.what());
  } catch (...) {
    error(out, ErrorCode::kInternal, "unknown failure");
  }
  return out;
}

void Session::dispatch(const proto::Command& command, Outcome& out) {
  std::visit([&](const auto& request) { handle(request, out); }, command);
}

void Session::handle(const proto::AuthRequest& r, Outcome& out) {
  if (options_.auth_token.empty() || r.token == options_.auth_token) {
    authed_.store(true, std::memory_order_relaxed);
    out.lines.emplace_back("ok auth");
    return;
  }
  error(out, ErrorCode::kUnauthorized, "bad auth token");
}

void Session::admit(std::string_view span_name, const std::string& name,
                    graph::BipartiteGraph g, Outcome& out) {
  // `added.instance` pins it while the reply is written, so a concurrent
  // load cannot evict it first.
  InstanceStore::AddResult added;
  {
    auto sp = obs::span(&context_.tracer, span_name, "serve");
    added = context_.service.add_instance(name, std::move(g));
    if (sp) {
      const PipelineInstance& inst = *added.instance;
      // The columns the init left for the solver to match.
      sp.arg("unmatched",
             static_cast<std::int64_t>(inst.graph.num_cols() -
                                       inst.initial_cardinality));
      sp.arg("bytes", static_cast<std::int64_t>(
                          InstanceStore::instance_bytes(inst)));
    }
  }
  std::ostringstream os;
  os << "instance " << name << " handle=" << added.handle
     << (added.deduplicated ? " (deduplicated)" : "") << " "
     << added.instance->graph.describe();
  out.lines.push_back(os.str());
}

void Session::handle(const proto::LoadRequest& r, Outcome& out) {
  graph::BipartiteGraph g;
  {
    const Timer timer;
    auto sp = obs::span(&context_.tracer, "load.read", "serve");
    try {
      g = graph::read_matrix_market_file(r.path);
    } catch (const std::exception& e) {
      error(out, ErrorCode::kIo, e.what());
      return;
    }
    context_.service.metrics()
        .histogram("serve.load_read_ms")
        .observe(timer.elapsed_ms());
  }
  admit("load.admit", r.name, std::move(g), out);
}

void Session::handle(const proto::GenRequest& r, Outcome& out) {
  graph::BipartiteGraph g;
  try {
    auto sp = obs::span(&context_.tracer, "gen.build", "serve");
    g = generate(r.spec, options_.limits);
  } catch (const std::out_of_range& e) {
    error(out, ErrorCode::kOutOfRange, e.what());
    return;
  } catch (const std::exception& e) {
    // Schema bounds screen most of this; the generators' own `require`
    // messages cover the cross-field cases (e.g. more edges than pairs).
    error(out, ErrorCode::kBadArgument, e.what());
    return;
  }
  admit("gen.admit", r.name, std::move(g), out);
}

void Session::handle(const proto::SubmitRequest& r, Outcome& out) {
  const auto handle = context_.service.instances().find(r.instance);
  if (!handle) {
    if (context_.service.instances().evicted_name(r.instance))
      error(out, ErrorCode::kEvicted,
            "instance '" + r.instance + "' was evicted; load it again");
    else
      error(out, ErrorCode::kUnknownInstance,
            "unknown instance '" + r.instance + "'");
    return;
  }
  Request req;
  req.instance = *handle;
  try {
    req.spec = SolverSpec::parse(r.spec);
  } catch (const std::exception& e) {
    error(out, ErrorCode::kBadArgument, e.what());
    return;
  }
  req.priority = r.priority;
  req.deadline_ms = r.deadline_ms;
  const Submission sub = context_.service.submit(std::move(req));
  if (sub.accepted)
    out.lines.push_back("ticket " + std::to_string(sub.ticket));
  else
    out.lines.push_back("rejected reason=" + proto::quoted(sub.reason));
}

void Session::handle(const proto::PollRequest& r, Outcome& out) {
  try {
    if (const auto response = context_.service.poll(r.ticket))
      out.lines.push_back(proto::response_line(*response));
    else
      out.lines.push_back("pending ticket=" + std::to_string(r.ticket));
  } catch (const std::invalid_argument& e) {
    error(out, ErrorCode::kUnknownTicket, e.what());
  }
}

void Session::handle(const proto::WaitRequest& r, Outcome& out) {
  try {
    out.lines.push_back(proto::response_line(context_.service.wait(r.ticket)));
  } catch (const std::invalid_argument& e) {
    error(out, ErrorCode::kUnknownTicket, e.what());
  }
}

void Session::handle(const proto::DrainRequest&, Outcome& out) {
  context_.service.drain();
  out.lines.emplace_back("drained");
}

void Session::handle(const proto::StatsRequest&, Outcome& out) {
  const ServiceStats s = context_.service.stats();
  const StoreStats store = context_.service.instances().stats();
  std::ostringstream os;
  os << "stats submitted=" << s.submitted << " accepted=" << s.accepted
     << " rejected=" << s.rejected << " completed=" << s.completed
     << " failed=" << s.failed << " expired=" << s.expired
     << " cache_hits=" << s.cache_hits << " dispatches=" << s.dispatches
     << " queued=" << s.queued << " in_flight=" << s.in_flight
     << " tickets_retained=" << s.tickets_retained
     << " evicted_tickets=" << s.evicted_tickets
     << " instances=" << store.instances << " store_bytes=" << store.bytes
     << " store_budget=" << store.byte_budget
     << " evicted_instances=" << store.evicted;
  out.lines.push_back(os.str());
  if (context_.service.cache()) {
    const CacheStats c = context_.service.cache()->stats();
    std::ostringstream cs;
    cs << "cache entries=" << c.entries << " bytes=" << c.bytes
       << " hits=" << c.hits << " misses=" << c.misses
       << " insertions=" << c.insertions << " evictions=" << c.evictions;
    out.lines.push_back(cs.str());
  }
  // Per-solver latency table: one line per resolved solver that has solved
  // at least one request — `auto` traffic shows up under its concrete
  // picks, so this table is how an operator judges the policy's choices.
  for (const SolverLatency& l : context_.service.solver_stats()) {
    std::ostringstream ls;
    ls << "solver " << l.solver << " count=" << l.count
       << " mean_ms=" << l.mean_ms << " p90_ms=" << l.p90_ms;
    out.lines.push_back(ls.str());
  }
  // Engine line: what the engine IS (the full EngineDescriptor summary)
  // right next to what it has DONE (lifetime odometers).  A dispatch that
  // solves opens exactly one stream, so `dispatches` is streams opened.
  const device::EngineStats e = context_.service.engine_stats();
  std::ostringstream es;
  es << "engine 0 descriptor="
     << context_.service.engine()->descriptor().summary()
     << " dispatches=" << e.streams_opened
     << " streams_retired=" << e.streams_retired
     << " launches=" << e.launches << " modeled_ms=" << e.modeled_ms
     << " native_ms=" << e.native_ms;
  out.lines.push_back(es.str());
  out.stats = true;  // a transport appends its per-client lines here
}

void Session::handle(const proto::MetricsRequest&, Outcome& out) {
  out.lines.push_back(context_.service.metrics_json());
}

void Session::handle(const proto::TraceStartRequest& r, Outcome& out) {
  const std::lock_guard lock(context_.trace_mutex);
  context_.trace_path = r.path;
  context_.tracer.enable();
  context_.service.set_tracer(&context_.tracer);
  out.lines.push_back("tracing started (dump target " + r.path + ")");
}

void Session::handle(const proto::TraceDumpRequest&, Outcome& out) {
  const std::lock_guard lock(context_.trace_mutex);
  if (context_.trace_path.empty()) {
    error(out, ErrorCode::kState, "trace-dump before trace-start");
    return;
  }
  if (!context_.tracer.write_file(context_.trace_path)) {
    error(out, ErrorCode::kIo,
          "cannot write trace to '" + context_.trace_path + "'");
    return;
  }
  out.lines.push_back(
      "trace written to " + context_.trace_path + " (" +
      std::to_string(context_.tracer.events().size()) + " events, " +
      std::to_string(context_.tracer.dropped()) + " dropped)");
}

void Session::handle(const proto::ShutdownRequest&, Outcome& out) {
  context_.service.shutdown();
  out.lines.emplace_back("ok shutdown");
  out.shutdown = true;
}

}  // namespace bpm::serve
