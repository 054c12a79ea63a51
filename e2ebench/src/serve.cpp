// The two served workloads: `serve_cold` (one client, every request loads a
// fresh graph) and `serve_warm` (two clients, every request a result-cache
// hit), both against a `bpm_serve --listen` child over TCP.

#include <atomic>
#include <filesystem>
#include <iostream>
#include <mutex>
#include <thread>

#include "core/solver.hpp"
#include "graph/matrix_market.hpp"
#include "layers.hpp"
#include "matching/greedy.hpp"
#include "matching/hopcroft_karp.hpp"
#include "matching/verify.hpp"
#include "policy/features.hpp"
#include "serve/instance_store.hpp"
#include "serve/proto.hpp"
#include "serve/result_cache.hpp"
#include "serve/service.hpp"
#include "serve/session.hpp"
#include "workloads.hpp"

namespace e2e {

using namespace bpm;

namespace {

/// The Table I analogues both served workloads draw from: a social graph,
/// a planar mesh, a road network and a circuit matrix.
const std::vector<std::string> kServeKinds = {"amazon0505", "delaunay_n20",
                                              "roadNet-PA", "Hamrle3"};

/// Instance scale (fraction of the paper's vertex counts).
constexpr double kColdScale = 0.005;
constexpr double kWarmScale = 0.01;
/// serve_cold requests per second of `--seconds`: the run measures a fixed
/// number of fresh graphs (so the server's instance store, and with it
/// peak RSS, holds the same count on a faster build), stopping early only
/// if `--seconds` runs out first.
constexpr double kColdRequestsPerSecond = 20.0;
/// Replayed requests per traced run (cold) and traced request spans kept
/// per warm run.
constexpr std::size_t kColdReplay = 36;
constexpr std::size_t kWarmReplay = 2000;
constexpr std::size_t kRecordedLines = 3000;

/// What one `submit` + `wait` pair came back with.
struct Answer {
  bool ok = false;
  bool cached = false;
  std::int64_t cardinality = -1;
  double queue_ms = 0, service_ms = 0, total_ms = 0;
  double submit_rt_us = 0;
  std::string error;
};

/// Submits `spec` on `name`, waits for the result, and parses it.  `lines`
/// (when given) records the protocol lines sent.
Answer submit_and_wait(Client& client, const std::string& name,
                       const std::string& spec, obs::Tracer* tracer,
                       std::uint64_t id, std::vector<std::string>* lines) {
  Answer a;
  const std::string submit = "submit " + name + " " + spec;
  std::string reply;
  {
    obs::Span sp = bench_span(tracer, "submit", id);
    const auto t0 = Clock::now();
    reply = client.call(submit);
    a.submit_rt_us = ms_since(t0) * 1e3;
  }
  if (lines) lines->push_back(submit);
  if (!reply.starts_with("ticket ")) {
    a.error = reply;
    return a;
  }
  const std::string wait = "wait " + reply.substr(7);
  {
    obs::Span sp = bench_span(tracer, "wait", id);
    reply = client.call(wait);
  }
  if (lines) lines->push_back(wait);
  if (!reply.starts_with("result ")) {
    a.error = reply;
    return a;
  }
  a.ok = number_field(reply, "ok") == 1;
  a.cached = number_field(reply, "cached") == 1;
  a.cardinality = static_cast<std::int64_t>(number_field(reply, "cardinality"));
  a.queue_ms = number_field(reply, "queue_ms", 0);
  a.service_ms = number_field(reply, "service_ms", 0);
  a.total_ms = number_field(reply, "total_ms", 0);
  if (!a.ok) a.error = reply;
  return a;
}

/// Checks one answer against the oracle; returns true when it counts.
bool accept(Report& report, const Answer& a, graph::index_t oracle,
            const std::string& what) {
  if (!a.ok) {
    std::cerr << "failed: " << what << ": " << a.error << "\n";
    return false;
  }
  if (a.cardinality != oracle) {
    report.wrong(what + ": cardinality " + std::to_string(a.cardinality) +
                 " != oracle " + std::to_string(oracle));
    return false;
  }
  return true;
}

/// Server-side samples of the measured requests (from the result lines).
struct ServiceSamples {
  std::vector<double> queue_ms, service_ms, gap_ms;
  void add(const Answer& a) {
    queue_ms.push_back(a.queue_ms);
    service_ms.push_back(a.service_ms);
    gap_ms.push_back(std::max(0.0, a.total_ms - a.queue_ms - a.service_ms));
  }
};

using Stats = std::map<std::string, std::map<std::string, double>>;

double stat(const Stats& s, const std::string& kind, const std::string& key) {
  const auto k = s.find(kind);
  if (k == s.end()) return 0.0;
  const auto v = k->second.find(key);
  return v == k->second.end() ? 0.0 : v->second;
}

/// The serve/* per-layer metrics read from the server itself: `stats`
/// counters, cache and engine odometers, and the result-line samples.
void server_metrics(Report& report, const Stats& before, const Stats& after,
                    const ServiceSamples& samples, double rss_ready_mb,
                    double rss_end_mb) {
  report.metric("transport.lines", stat(after, "transport", "lines"), "count");
  report.metric("transport.errors", stat(after, "transport", "errors"), "count");
  report.metric("service.queue_ms.p50", median(samples.queue_ms), "ms");
  report.metric("service.service_ms.p50", median(samples.service_ms), "ms");
  report.metric("service.dispatch_gap_ms.p50", median(samples.gap_ms), "ms");
  for (const char* key :
       {"dispatches", "coalesced", "fanout_hits", "rejected", "failed"})
    report.metric(std::string("service.") + key, stat(after, "stats", key),
                  "count");
  report.metric("cache.insertions", stat(after, "cache", "insertions"), "count");
  report.metric("cache.evictions", stat(after, "cache", "evictions"), "count");
  report.metric("cache.bytes", stat(after, "cache", "bytes"), "bytes");
  const double hits = stat(after, "cache", "hits") - stat(before, "cache", "hits");
  const double misses =
      stat(after, "cache", "misses") - stat(before, "cache", "misses");
  report.metric("cache.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0,
                "ratio");
  const double instances = stat(after, "stats", "instances");
  report.metric("store.instances", instances, "count");
  report.metric("store.rss_mb_per_instance",
                instances > 0 ? (rss_end_mb - rss_ready_mb) / instances : 0.0,
                "MiB");
  report.metric("engine.dispatches", stat(after, "engine", "dispatches"), "count");
  report.metric("engine.launches", stat(after, "engine", "launches"), "count");
  report.metric("engine.native_ms", stat(after, "engine", "native_ms"), "ms");
  const double launches = stat(after, "engine", "launches");
  report.metric("device.launch_us",
                launches > 0 ? stat(after, "engine", "native_ms") * 1e3 / launches
                             : 0.0,
                "us");
}

/// An in-process replica of the server (same service options, no
/// transport) for the session and transport-overhead probes.
struct Replica {
  explicit Replica(const Config& cfg)
      : service(options(cfg)), context(service), session(context) {}

  static serve::ServiceOptions options(const Config& cfg) {
    serve::ServiceOptions opt;
    opt.workers = cfg.serve_workers;
    opt.device_threads = cfg.threads;
    opt.backend = device::Backend::kHost;
    opt.cache = std::make_shared<serve::ResultCache>();
    opt.completed_ticket_retention = 4096;
    return opt;
  }

  /// Executes one line; the first reply line.
  std::string execute(const std::string& line) {
    const serve::Session::Outcome out = session.execute(line);
    return out.lines.empty() ? std::string() : out.lines.front();
  }

  serve::MatchingService service;
  serve::SessionContext context;
  serve::Session session;
};

/// `session.*` metrics and `transport.{roundtrip,overhead}_us.p50`: the
/// replica loads every input, solves every (input, spec) pair once, then
/// times cache-hit `submit` and `wait` lines `reps` times per pair.
/// `socket_submit_us` are the socket round trips of `submit` lines from the
/// traced phase.
void probe_session(Report& report, const Config& cfg,
                   const std::vector<std::pair<const Input*, std::string>>& pairs,
                   int reps, const std::vector<double>& socket_submit_us) {
  Replica replica(cfg);
  std::vector<double> load_ms, submit_us, wait_us;
  for (const auto& [in, spec] : pairs) {
    if (replica.service.instances().find(in->name)) continue;
    const auto t0 = Clock::now();
    const std::string reply = replica.execute("load " + in->name + " " + in->path);
    load_ms.push_back(ms_since(t0));
    if (!reply.starts_with("instance ")) report.wrong("replica load: " + reply);
  }
  for (int rep = 0; rep <= reps; ++rep)
    for (const auto& [in, spec] : pairs) {
      auto t0 = Clock::now();
      const std::string ticket = replica.execute("submit " + in->name + " " + spec);
      const double submit = ms_since(t0) * 1e3;
      if (!ticket.starts_with("ticket ")) {
        report.wrong("replica submit: " + ticket);
        continue;
      }
      t0 = Clock::now();
      const std::string result = replica.execute("wait " + ticket.substr(7));
      const double wait = ms_since(t0) * 1e3;
      if (number_field(result, "cardinality") != in->maximum)
        report.wrong("replica result: " + result);
      if (rep == 0) continue;  // the solving pass fills the cache
      submit_us.push_back(submit);
      wait_us.push_back(wait);
    }
  const double roundtrip = median(socket_submit_us);
  const double execute = median(submit_us);
  report.metric("transport.roundtrip_us.p50", roundtrip, "us");
  report.metric("transport.overhead_us.p50", roundtrip - execute, "us");
  report.metric("session.execute_us.submit", execute, "us");
  report.metric("session.execute_us.wait_hit", median(wait_us), "us");
  report.metric("session.execute_ms.load", median(load_ms), "ms");
}

/// Probes every served workload runs on its own inputs: admission, G-PR
/// and the solvers.
void common_probes(Report& report, const Config& cfg,
                   const std::vector<const Input*>& kinds) {
  probe_admission(report, kinds);
  probe_gpr(report, kinds, cfg.threads);
  probe_solvers(report, kinds, kTable1Specs, cfg.threads, nullptr,
                [](std::size_t, std::size_t) { return std::nullopt; });
}

}  // namespace

// --- serve_cold -------------------------------------------------------------

Report run_serve_cold(const Config& cfg) {
  Report report;
  const double scale = cfg.tiny ? 0.002 : kColdScale;
  const std::size_t requests =
      cfg.tiny ? 12
               : static_cast<std::size_t>(kColdRequestsPerSecond * cfg.seconds);

  // Inputs: one warm-up graph per spec and one fresh graph per request,
  // each from its own seed so the server can neither dedup nor hit.
  std::vector<Input> warmup, inputs;
  for (std::size_t j = 0; j < kServeSpecs.size(); ++j) {
    const std::string name = indexed("w", j);
    warmup.push_back(make_input(table1_instance(kServeKinds[j % 4]), scale,
                                mix_seed(cfg.seed, 1'000'000 + j), name,
                                cfg.work_dir + "/" + name + ".mtx"));
  }
  std::vector<std::int64_t> edges;
  for (std::size_t i = 0; i < requests; ++i) {
    const std::string name = indexed("c", i);
    inputs.push_back(make_input(table1_instance(kServeKinds[i % 4]), scale,
                                mix_seed(cfg.seed, i), name,
                                cfg.work_dir + "/" + name + ".mtx"));
    edges.push_back(inputs.back().graph.num_edges());
    // Only the graphs a traced run replays stay in memory.
    if (!cfg.trace || i < requests / 2 || i >= requests / 2 + kColdReplay)
      inputs.back().graph = graph::BipartiteGraph();
  }
  const auto spec_of = [](std::size_t i) { return kServeSpecs[i % 3]; };

  // Set-up: spawn until ready, then the warm-up pass (one request per
  // spec).  Repeated; the last server stays up for the measured phase.
  std::vector<double> setup_s;
  std::unique_ptr<ServerProcess> server;
  std::unique_ptr<Client> client;
  double rss_ready = 0;
  for (unsigned rep = 0; rep < cfg.setup_reps; ++rep) {
    if (server) server->shutdown();
    client.reset();
    server.reset();
    const auto t0 = Clock::now();
    server = std::make_unique<ServerProcess>(cfg);
    client = std::make_unique<Client>(server->port());
    rss_ready = rss_mb(server->pid());
    for (std::size_t j = 0; j < warmup.size(); ++j) {
      const std::string reply =
          client->call("load " + warmup[j].name + " " + warmup[j].path);
      if (!reply.starts_with("instance "))
        throw std::runtime_error("warm-up load failed: " + reply);
      const Answer a = submit_and_wait(*client, warmup[j].name, spec_of(j),
                                       nullptr, 0, nullptr);
      if (!accept(report, a, warmup[j].maximum, "warm-up " + warmup[j].name))
        throw std::runtime_error("warm-up request failed");
    }
    setup_s.push_back(ms_since(t0) / 1e3);
  }

  obs::Tracer tracer(1u << 16);
  Client scrape(server->port());
  const Stats before = scrape.stats();
  std::vector<Sample> latencies, traced_latencies;
  std::vector<double> submit_rt_us;
  std::vector<std::string> lines;
  ServiceSamples samples;
  const auto deadline = Clock::now() + std::chrono::duration<double>(cfg.seconds);
  const auto start = Clock::now();
  std::size_t done = 0;
  for (std::size_t i = 0; i < requests && Clock::now() < deadline; ++i) {
    const bool traced = cfg.trace && i >= requests / 2;
    if (traced && i == requests / 2) {
      tracer.enable();
      scrape.call("trace-start " +
                  std::filesystem::absolute(trace_path(cfg, "-server")).string());
    }
    obs::Tracer* t = traced ? &tracer : nullptr;
    const Input& in = inputs[i];
    ++report.attempted;
    const std::string load = "load " + in.name + " " + in.path;
    const auto t0 = Clock::now();
    Answer a;
    {
      obs::Span root = bench_span(t, "request", i);
      std::string reply;
      {
        obs::Span sp = bench_span(t, "load", i);
        reply = client->call(load);
      }
      if (!reply.starts_with("instance ")) {
        a.error = reply;
      } else {
        a = submit_and_wait(*client, in.name, spec_of(i), t, i,
                            traced && lines.size() < kRecordedLines ? &lines
                                                                    : nullptr);
      }
    }
    const double ms = ms_since(t0);
    if (traced && lines.size() < kRecordedLines) lines.push_back(load);
    ++done;
    if (!t || i >= requests / 2 + kColdReplay)
      std::filesystem::remove(in.path);
    if (!accept(report, a, in.maximum, in.name) || a.cached) {
      if (a.cached) std::cerr << "failed: " << in.name << " was a cache hit\n";
      ++report.failed;
      continue;
    }
    (traced ? traced_latencies : latencies).push_back({ms_since(start), ms});
    samples.add(a);
    if (traced) submit_rt_us.push_back(a.submit_rt_us);
  }
  if (done < requests)
    note("serve_cold: --seconds ran out after " + std::to_string(done) + " of " +
         std::to_string(requests) + " requests");
  const double peak = peak_rss_mb(server->pid());

  if (!cfg.trace) {
    report.metric("setup_s", median(setup_s), "s");
    request_metrics(report, latencies, kServeSpecs.size() * kServeKinds.size(),
                    report.attempted, report.failed);
    report.metric("peak_rss_mb", peak, "MiB");
    server->shutdown();
    return report;
  }

  // --- traced run: server counters, replay, probes -------------------------
  const Stats after = scrape.stats();
  scrape.call("trace-dump");
  const double rss_end = rss_mb(server->pid());
  tracer.disable();
  server->shutdown();
  server_metrics(report, before, after, samples, rss_ready, rss_end);
  report.metric("trace.overhead_ratio",
                median_latency(latencies) > 0
                    ? median_latency(traced_latencies) / median_latency(latencies)
                    : 0.0,
                "ratio");
  double edge_sum = 0;
  for (std::int64_t e : edges) edge_sum += static_cast<double>(e);
  report.metric("graph.edges_per_request", edge_sum / requests, "count");

  // Replay the first traced requests layer by layer in process, under the
  // same ids: the blocking path of a cold request, one layer call at a time.
  tracer.enable();
  device::Device dev = host_device(cfg.threads);
  const SolveContext ctx = solve_context(dev, cfg.threads);
  serve::InstanceStore store;
  serve::ResultCache cache;
  std::vector<const Input*> replayed;
  for (std::size_t i = requests / 2;
       i < std::min(done, requests / 2 + kColdReplay); ++i) {
    Input& in = inputs[i];
    const std::string spec = spec_of(i);
    obs::Span root = bench_span(&tracer, "replay", i);
    {
      obs::Span sp = bench_span(&tracer, "proto.parse", i);
      (void)serve::proto::parse_command("load " + in.name + " " + in.path);
    }
    graph::BipartiteGraph g;
    {
      obs::Span sp = bench_span(&tracer, "graph.mtx_read", i);
      g = graph::read_matrix_market_file(in.path);
    }
    PipelineInstance inst;
    inst.name = in.name;
    {
      obs::Span sp = bench_span(&tracer, "admit.init", i);
      inst.init = matching::cheap_matching(g);
      inst.initial_cardinality = inst.init.cardinality();
    }
    {
      obs::Span sp = bench_span(&tracer, "admit.fingerprint", i);
      inst.fingerprint = graph::structural_fingerprint(g);
    }
    {
      obs::Span sp = bench_span(&tracer, "admit.features", i);
      inst.features = policy::compute_features(g, inst.initial_cardinality);
      inst.degree_skew = inst.features.degree_skew;
    }
    {
      obs::Span sp = bench_span(&tracer, "admit.ground_truth", i);
      inst.maximum_cardinality =
          matching::hopcroft_karp(g, inst.init).cardinality();
    }
    const std::uint64_t fingerprint = inst.fingerprint;
    inst.graph = std::move(g);
    std::size_t handle = 0;
    {
      obs::Span sp = bench_span(&tracer, "store.add", i);
      handle = store.add(std::move(inst)).handle;
    }
    const PipelineInstance& held = store.get(handle);
    {
      obs::Span sp = bench_span(&tracer, "proto.parse", i);
      (void)serve::proto::parse_command("submit " + in.name + " " + spec);
    }
    {
      obs::Span sp = bench_span(&tracer, "cache.get", i);
      (void)cache.get(fingerprint, spec);
    }
    const std::unique_ptr<Solver> solver = SolverSpec::parse(spec).instantiate();
    SolveResult result;
    {
      obs::Span sp = bench_span(&tracer, "solve", i);
      result = solver->run(ctx, held.graph, held.init);
    }
    bool verified = false;
    {
      obs::Span sp = bench_span(&tracer, "verify", i);
      verified = result.matching.is_valid(held.graph) &&
                 matching::is_maximum(held.graph, result.matching);
    }
    if (!verified || result.stats.cardinality != in.maximum)
      report.wrong("replay of " + in.name + " with " + spec);
    {
      obs::Span sp = bench_span(&tracer, "cache.put", i);
      cache.put(fingerprint, spec,
                JobOutcome{.stats = result.stats, .ok = true, .error = {}});
    }
    {
      obs::Span sp = bench_span(&tracer, "proto.parse", i);
      (void)serve::proto::parse_command("wait 1");
    }
    replayed.push_back(&in);
  }
  tracer.disable();
  const SelfTimes st = self_times(tracer.events());
  self_time_metrics(report, st);
  const double admit_parse = layer_ms(st, "admit") + layer_ms(st, "graph") +
                             layer_ms(st, "proto");
  const double solve_verify = layer_ms(st, "solve") + layer_ms(st, "verify");
  note(std::string("check serve_cold: admission + parsing self time ") +
       std::to_string(admit_parse) + " ms vs solve + verify " +
       std::to_string(solve_verify) + " ms vs unattributed p50 " +
       std::to_string(median(st.unattributed_ms)) + " ms per request: " +
       (admit_parse >= solve_verify &&
                admit_parse >= median(st.unattributed_ms)
            ? "confirmed"
            : "NOT confirmed"));

  probe_mtx_read(report, replayed);
  std::vector<std::pair<const Input*, std::string>> session_pairs;
  for (const Input* in : replayed)
    session_pairs.emplace_back(in, spec_of(std::stoul(in->name.substr(1))));
  probe_session(report, cfg, session_pairs, 1, submit_rt_us);
  probe_proto(report, lines);
  probe_cache(report, replayed, kServeSpecs, /*hits=*/false);
  std::vector<const Input*> kinds(replayed.begin(),
                                  replayed.begin() + std::min<std::size_t>(4, replayed.size()));
  common_probes(report, cfg, kinds);
  write_trace(cfg, tracer);
  for (const Input* in : replayed) std::filesystem::remove(in->path);
  return report;
}

// --- serve_warm -------------------------------------------------------------

Report run_serve_warm(const Config& cfg) {
  Report report;
  const double scale = cfg.tiny ? 0.002 : kWarmScale;
  std::vector<Input> inputs;
  for (std::size_t k = 0; k < kServeKinds.size(); ++k) {
    const std::string name = indexed("i", k);
    inputs.push_back(make_input(table1_instance(kServeKinds[k]), scale,
                                mix_seed(cfg.seed, k), name,
                                cfg.work_dir + "/" + name + ".mtx"));
  }
  struct Pair {
    const Input* input;
    std::string spec;
  };
  std::vector<Pair> pairs;
  for (const Input& in : inputs)
    for (const std::string& spec : kServeSpecs) pairs.push_back({&in, spec});

  // Set-up: spawn until ready, register every graph, then solve every
  // (graph, spec) pair once so the measured requests all hit the cache.
  std::vector<double> setup_s;
  std::unique_ptr<ServerProcess> server;
  double rss_ready = 0;
  for (unsigned rep = 0; rep < cfg.setup_reps; ++rep) {
    if (server) server->shutdown();
    server.reset();
    const auto t0 = Clock::now();
    server = std::make_unique<ServerProcess>(cfg);
    Client client(server->port());
    rss_ready = rss_mb(server->pid());
    for (const Input& in : inputs) {
      const std::string reply = client.call("load " + in.name + " " + in.path);
      if (!reply.starts_with("instance "))
        throw std::runtime_error("registration failed: " + reply);
    }
    for (const Pair& p : pairs) {
      const Answer a =
          submit_and_wait(client, p.input->name, p.spec, nullptr, 0, nullptr);
      if (!accept(report, a, p.input->maximum, "warm-up " + p.input->name))
        throw std::runtime_error("warm-up request failed");
    }
    setup_s.push_back(ms_since(t0) / 1e3);
  }

  // Measured phase: two clients in a closed loop over the pairs.
  constexpr unsigned kClients = 2;
  obs::Tracer tracer(1u << 17);
  std::atomic<std::uint64_t> next_id{0};
  std::mutex mutex;  // guards everything the clients merge into below
  std::vector<Sample> latencies, traced_latencies;
  std::vector<double> submit_rt_us;
  std::vector<std::string> lines;
  std::vector<std::pair<std::uint64_t, std::size_t>> traced_pairs;  // id, pair
  ServiceSamples samples;
  std::uint64_t cached_misses = 0;
  const auto run_phase = [&](double seconds, bool traced) {
    const auto phase_start = Clock::now();
    const auto deadline = phase_start + std::chrono::duration<double>(seconds);
    std::vector<std::thread> clients;
    for (unsigned c = 0; c < kClients; ++c)
      clients.emplace_back([&, c] {
        Client client(server->port());
        std::vector<Sample> lat;
        std::vector<double> rt;
        std::vector<std::string> sent;
        std::vector<Answer> answers;
        std::vector<std::pair<std::uint64_t, std::size_t>> ids;
        Report local;
        std::size_t k = c * pairs.size() / kClients;
        std::uint64_t attempted = 0, failed = 0, misses = 0;
        while (Clock::now() < deadline) {
          const std::size_t pair = k++ % pairs.size();
          const Pair& p = pairs[pair];
          const std::uint64_t id = next_id.fetch_add(1);
          obs::Tracer* t = traced && id < kWarmReplay ? &tracer : nullptr;
          if (t) ids.emplace_back(id, pair);
          ++attempted;
          const auto t0 = Clock::now();
          Answer a;
          {
            obs::Span root = bench_span(t, "request", id);
            a = submit_and_wait(client, p.input->name, p.spec, t, id,
                                traced && sent.size() < kRecordedLines / kClients
                                    ? &sent
                                    : nullptr);
          }
          const double ms = ms_since(t0);
          if (!accept(local, a, p.input->maximum, p.input->name) || !a.cached) {
            if (!a.cached && a.ok) ++misses;
            ++failed;
            continue;
          }
          lat.push_back({ms_since(phase_start), ms});
          if (traced) rt.push_back(a.submit_rt_us);
          answers.push_back(a);
        }
        const std::lock_guard lock(mutex);
        auto& into = traced ? traced_latencies : latencies;
        into.insert(into.end(), lat.begin(), lat.end());
        submit_rt_us.insert(submit_rt_us.end(), rt.begin(), rt.end());
        lines.insert(lines.end(), sent.begin(), sent.end());
        for (const Answer& a : answers) samples.add(a);
        traced_pairs.insert(traced_pairs.end(), ids.begin(), ids.end());
        report.attempted += attempted;
        report.failed += failed;
        cached_misses += misses;
        if (!local.correct) report.correct = false;
      });
    for (std::thread& t : clients) t.join();
  };

  Client scrape(server->port());
  const Stats before = scrape.stats();
  if (!cfg.trace) {
    run_phase(cfg.seconds, false);
  } else {
    run_phase(cfg.seconds / 2, false);
    next_id.store(0);
    tracer.enable();
    scrape.call("trace-start " + std::filesystem::absolute(trace_path(cfg, "-server")).string());
    run_phase(cfg.seconds / 2, true);
  }
  if (cached_misses > 0)
    std::cerr << "failed: " << cached_misses
              << " warm requests missed the cache\n";
  const double peak = peak_rss_mb(server->pid());

  if (!cfg.trace) {
    report.metric("setup_s", median(setup_s), "s");
    request_metrics(report, latencies, 1, report.attempted, report.failed);
    report.metric("peak_rss_mb", peak, "MiB");
    server->shutdown();
    return report;
  }

  const Stats after = scrape.stats();
  scrape.call("trace-dump");
  const double rss_end = rss_mb(server->pid());
  tracer.disable();
  server->shutdown();
  server_metrics(report, before, after, samples, rss_ready, rss_end);
  report.metric("trace.overhead_ratio",
                median_latency(latencies) > 0
                    ? median_latency(traced_latencies) / median_latency(latencies)
                    : 0.0,
                "ratio");
  double edge_sum = 0;
  for (const Pair& p : pairs)
    edge_sum += static_cast<double>(p.input->graph.num_edges());
  report.metric("graph.edges_per_request", edge_sum / pairs.size(), "count");

  // Replay: a cache hit's blocking path, layer by layer, under the ids of
  // the traced requests.  Nothing is solved.
  serve::ResultCache cache;
  std::vector<std::uint64_t> fingerprints;
  for (const Input& in : inputs)
    fingerprints.push_back(graph::structural_fingerprint(in.graph));
  for (std::size_t k = 0; k < inputs.size(); ++k)
    for (const std::string& spec : kServeSpecs)
      cache.put(fingerprints[k], spec,
                JobOutcome{.stats = {}, .ok = true, .error = {}});
  tracer.enable();
  for (const auto& [id, k] : traced_pairs) {
    const Pair& p = pairs[k];
    obs::Span root = bench_span(&tracer, "replay", id);
    {
      obs::Span sp = bench_span(&tracer, "proto.parse", id);
      (void)serve::proto::parse_command("submit " + p.input->name + " " + p.spec);
    }
    {
      obs::Span sp = bench_span(&tracer, "cache.get", id);
      if (!cache.get(fingerprints[k / kServeSpecs.size()], p.spec))
        report.wrong("replay cache probe missed");
    }
    {
      obs::Span sp = bench_span(&tracer, "proto.parse", id);
      (void)serve::proto::parse_command("wait 1");
    }
  }
  tracer.disable();
  const SelfTimes st = self_times(tracer.events());
  self_time_metrics(report, st);
  const double solve_ms = layer_ms(st, "solve");
  const double hit_ratio = [&] {
    for (const auto& [name, vu] : report.metrics)
      if (name == "cache.hit_ratio") return vu.first;
    return 0.0;
  }();
  note(std::string("check serve_warm: cache.hit_ratio ") +
       std::to_string(hit_ratio) + ", solve self time " +
       std::to_string(solve_ms) + " ms: " +
       (hit_ratio == 1.0 && solve_ms == 0.0 ? "confirmed" : "NOT confirmed"));

  std::vector<const Input*> all;
  for (const Input& in : inputs) all.push_back(&in);
  probe_mtx_read(report, all);
  std::vector<std::pair<const Input*, std::string>> session_pairs;
  for (const Pair& p : pairs) session_pairs.emplace_back(p.input, p.spec);
  probe_session(report, cfg, session_pairs, cfg.tiny ? 2 : 20, submit_rt_us);
  probe_proto(report, lines);
  probe_cache(report, all, kServeSpecs, /*hits=*/true);
  common_probes(report, cfg, all);
  write_trace(cfg, tracer);
  return report;
}

}  // namespace e2e
