// Serving load test: how many matching requests per second does
// `serve::MatchingService` sustain, and what does a client wait?
//
// Closed loop (always): for each --inflight level L, L client threads
// submit-and-wait over a fixed request mix (suite instances × --algo
// specs, round-robin).  Reports wall time, requests/s, speedup vs the
// serialized L=1 baseline, and latency percentiles.  Every response is
// checked against a sequential `MatchingPipeline` reference run of the
// same jobs — concurrency must never change a result.
//
// Cache phase (--cache-bytes > 0): replays the mix on a cache-backed
// service (cold pass, then warm pass = 100% hits), snapshots the cache,
// and replays once more on a *fresh* service warmed from the snapshot —
// the restart story of a long-running deployment.
//
// Open loop (--open-rate > 0): one thread submits at the target rate
// against a bounded queue; completion latency percentiles and rejected
// (backpressure) counts show the overload behaviour.
//
// Socket phase (--socket-clients > 0): N concurrent line-protocol
// clients drive the full serve stack — schema decode, per-connection
// session, quota accounting, socket transport — over real TCP.  Each
// client runs submit/wait rounds against planted-perfect instances
// (known maximum = n, so every result line is reference-checked), one
// client probes with malformed lines (every probe must answer `error
// ...`, never drop the connection's service), and the final `stats`
// shows per-client quota accounting.  By default the phase spins up an
// in-process `SocketTransport`; with --connect PORT it drives an
// external `bpm_serve --listen PORT` instead (add --socket-shutdown to
// send `shutdown` at the end so that server exits).
//
//   serve_throughput --scale 0.002 --inflight 1,2,4,8 --requests 96
//   serve_throughput --scale 0.002 --open-rate 200 --queue-depth 16
//   serve_throughput --socket-clients 4 --socket-requests 6
//   serve_throughput --socket-clients 4 --connect 7471 --socket-shutdown

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "harness_common.hpp"
#include "serve/service.hpp"
#include "serve/session.hpp"
#include "serve/transport.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace bpm;
using namespace bpm::bench;

struct Reference {
  graph::index_t cardinality = 0;
  bool ok = false;
};

struct Mix {
  std::vector<std::size_t> handles;  ///< service handle per suite instance
  std::vector<SolverSpec> specs;
  [[nodiscard]] std::size_t instance_of(std::size_t i) const {
    return i % handles.size();
  }
  [[nodiscard]] const SolverSpec& spec_of(std::size_t i) const {
    return specs[(i / handles.size()) % specs.size()];
  }
};

serve::ServiceOptions service_options(
    const SuiteOptions& opt, unsigned workers, std::size_t queue_depth,
    std::shared_ptr<serve::ResultCache> cache) {
  serve::ServiceOptions s;
  s.workers = workers;
  s.backend = opt.backend;
  s.device_threads = opt.threads;
  s.solver_threads = opt.threads;
  s.queue_depth = queue_depth;
  s.cache = std::move(cache);
  s.tracer = opt.tracer();
  return s;
}

Mix register_suite(serve::MatchingService& service,
                   const std::vector<BuiltInstance>& suite,
                   const SuiteOptions& opt) {
  Mix mix;
  // Precomputed admissions: each service level reuses the suite's init
  // and features instead of recomputing them per registration.
  for (const BuiltInstance& bi : suite)
    mix.handles.push_back(
        service.add_instance(bench::to_pipeline_instance(bi)).handle);
  mix.specs = opt.algos;
  return mix;
}

/// Submits requests [0, n) closed-loop from `clients` threads; returns
/// completion latencies (ms).  `bad` counts responses that failed or
/// disagreed with the reference.
std::vector<double> closed_loop(serve::MatchingService& service,
                                const Mix& mix, std::size_t n,
                                unsigned clients,
                                const std::map<std::size_t, Reference>& want,
                                std::atomic<std::size_t>& bad) {
  // -1 marks "not served" (rejected) so such slots never pollute the
  // percentiles with phantom 0 ms samples.
  std::vector<double> latencies(n, -1.0);
  std::atomic<std::size_t> next{0};
  const auto client = [&] {
    while (true) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      serve::Submission sub =
          service.submit({.instance = mix.handles[mix.instance_of(i)],
                          .spec = mix.spec_of(i)});
      if (!sub.accepted) {  // closed loop never overruns a sane queue depth
        bad.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      const serve::Response r = sub.future.get();
      latencies[i] = r.total_ms;
      const auto it = want.find(i % (mix.handles.size() * mix.specs.size()));
      if (!r.ok || it == want.end() || !it->second.ok ||
          r.stats.cardinality != it->second.cardinality)
        bad.fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (unsigned c = 0; c < clients; ++c) threads.emplace_back(client);
  for (std::thread& t : threads) t.join();
  std::erase_if(latencies, [](double l) { return l < 0.0; });
  return latencies;
}

/// `key=value` scrape out of a protocol response line (e.g. the
/// cardinality of a `result ...` line); empty when absent.
std::string response_field(const std::string& line, const std::string& key) {
  const std::string needle = " " + key + "=";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return {};
  const std::size_t begin = at + needle.size();
  return line.substr(begin, line.find(' ', begin) - begin);
}

/// One socket client's submit/wait rounds against planted instances
/// whose maximum matching is known by construction.  Returns the number
/// of wrong/failed responses.
std::size_t socket_client_rounds(const std::string& host, std::uint16_t port,
                                 std::size_t rounds,
                                 const std::vector<std::pair<std::string,
                                                             long>>& planted,
                                 std::atomic<std::size_t>& served) {
  static const char* kSpecs[] = {"g-pr-shr", "hk"};
  serve::LineClient client(host, port);
  std::size_t bad = 0;
  for (std::size_t r = 0; r < rounds; ++r) {
    const auto& [name, n] = planted[r % planted.size()];
    client.send_line("submit " + name + " " + kSpecs[r % 2]);
    const auto ticket = client.recv_line();
    if (!ticket || !ticket->starts_with("ticket ")) {
      ++bad;
      continue;
    }
    client.send_line("wait " + ticket->substr(7));
    const auto result = client.recv_line();
    if (!result || !result->starts_with("result ") ||
        response_field(*result, "ok") != "1" ||
        response_field(*result, "cardinality") != std::to_string(n))
      ++bad;
    else
      served.fetch_add(1, std::memory_order_relaxed);
  }
  return bad;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("serve_throughput",
                "open/closed-loop load test of serve::MatchingService: "
                "latency percentiles, throughput, and cache hit-rate vs "
                "in-flight requests");
  register_suite_flags(cli, /*default_stride=*/7,
                       /*default_algos=*/"g-pr-shr,hk,p-dbfs");
  cli.add_option("inflight", "closed-loop client counts (= service workers)",
                 "1,2,4,8");
  cli.add_option("requests", "requests per closed-loop level", "96");
  cli.add_option("cache-bytes",
                 "cache budget for the persistence phase (0 = skip)",
                 std::to_string(std::size_t{32} << 20));
  cli.add_option("open-rate", "open-loop arrival rate in requests/s (0 = "
                 "skip)", "0");
  cli.add_option("queue-depth", "admission queue bound for the open loop",
                 "256");
  cli.add_option("socket-clients",
                 "concurrent line-protocol clients of the socket phase "
                 "(0 = skip)",
                 "0");
  cli.add_option("socket-requests",
                 "submit/wait rounds per socket client", "6");
  cli.add_option("connect",
                 "drive an external bpm_serve --listen on this port "
                 "instead of an in-process transport (0 = in-process)",
                 "0");
  cli.add_flag("socket-shutdown",
               "send `shutdown` at the end of the socket phase (so an "
               "external --connect server exits)");
  SuiteOptions opt;
  try {
    cli.parse(argc, argv);
    opt = suite_options_from_cli(cli);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }

  const auto suite = build_suite(opt);
  print_header("Serving throughput — MatchingService under load", opt,
               suite.size());
  const auto requests =
      static_cast<std::size_t>(cli.get_int("requests"));
  std::vector<unsigned> levels;
  for (const std::string& tok : cli.get_string_list("inflight"))
    levels.push_back(static_cast<unsigned>(std::stoul(tok)));
  // speedup_vs_serial is defined against the serialized (1 in-flight)
  // run, so that run must exist and come first.
  levels.erase(std::remove(levels.begin(), levels.end(), 1u), levels.end());
  levels.insert(levels.begin(), 1u);

  // The ground truth every response is compared against: a sequential
  // MatchingPipeline run of the identical (instance × spec) grid.
  SuiteOptions seq = opt;
  seq.jobs = 1;
  const PipelineReport reference = run_grid(suite, seq);
  std::map<std::size_t, Reference> want;  // mix index -> expected outcome
  for (std::size_t j = 0; j < reference.jobs.size(); ++j) {
    const PipelineJob& job = reference.jobs[j];
    // Pipeline order is instance-major; the mix is spec-major.
    const std::size_t mix_index =
        (j % opt.algos.size()) * suite.size() + job.instance;
    want[mix_index] = {job.stats.cardinality, job.ok};
  }
  std::cout << "# mix: " << suite.size() << " instances x "
            << opt.algos.size() << " specs, " << requests
            << " requests per level; reference " << (reference.all_ok() ? "ok" : "FAILED")
            << "\n\n";

  bool all_ok = reference.all_ok();

  // ---- closed loop: throughput and latency vs in-flight requests ----------
  Table table({"inflight", "wall_ms", "req_per_s", "speedup_vs_serial",
               "p50_ms", "p90_ms", "p99_ms", "bad"},
              2);
  double serial_wall = 0.0;
  for (const unsigned level : levels) {
    serve::MatchingService service(
        service_options(opt, level, requests + 1, nullptr));
    const Mix mix = register_suite(service, suite, opt);
    std::atomic<std::size_t> bad{0};
    Timer timer;
    const std::vector<double> lat =
        closed_loop(service, mix, requests, level, want, bad);
    const double wall = timer.elapsed_ms();
    if (serial_wall == 0.0) serial_wall = wall;
    all_ok &= bad.load() == 0;
    table.add_row({static_cast<std::int64_t>(level), wall,
                   static_cast<double>(requests) / (wall / 1e3),
                   serial_wall / wall, percentile(lat, 50),
                   percentile(lat, 90), percentile(lat, 99),
                   static_cast<std::int64_t>(bad.load())});
  }
  if (opt.csv)
    std::cout << table.to_csv();
  else
    table.print(std::cout);
  std::cout << "\nExpected shape: req_per_s grows with inflight until the "
               "engine saturates (needs > 1 hardware thread to show — the "
               "header prints the count); bad must be 0 at every level "
               "(responses are checked against the sequential pipeline "
               "reference).\n";

  // Registry cross-check: every completion above also streamed into the
  // process-wide `serve.latency_ms` histogram, so its interpolated
  // percentiles must track the exact per-request ones in the table
  // (bucketed, so approximate — same order of magnitude, same shape).
  {
    const obs::Histogram::Snapshot snap =
        obs::Registry::global().histogram("serve.latency_ms").snapshot();
    std::cout << "registry serve.latency_ms (all levels pooled): count="
              << snap.count << " mean=" << snap.mean() << " ms, p50="
              << snap.percentile(50) << " ms, p90=" << snap.percentile(90)
              << " ms, p99=" << snap.percentile(99) << " ms\n";
  }

  // ---- cache persistence: warm pass + snapshot reload ---------------------
  const auto cache_bytes =
      static_cast<std::size_t>(cli.get_int("cache-bytes"));
  if (cache_bytes > 0) {
    const std::size_t grid = suite.size() * opt.algos.size();
    const unsigned workers = levels.empty() ? 4 : levels.back();
    const auto snapshot =
        std::filesystem::temp_directory_path() / "serve_throughput.cache";
    std::atomic<std::size_t> bad{0};
    double cold_ms = 0.0, warm_ms = 0.0, reload_ms = 0.0;
    std::uint64_t warm_hits = 0, reload_hits = 0;
    std::size_t entries = 0;
    {
      auto cache = std::make_shared<serve::ResultCache>(
          serve::CacheOptions{.byte_budget = cache_bytes});
      serve::MatchingService service(
          service_options(opt, workers, grid + 1, cache));
      const Mix mix = register_suite(service, suite, opt);
      Timer timer;
      (void)closed_loop(service, mix, grid, workers, want, bad);
      cold_ms = timer.elapsed_ms();
      timer.restart();
      (void)closed_loop(service, mix, grid, workers, want, bad);
      warm_ms = timer.elapsed_ms();
      warm_hits = service.stats().cache_hits;
      entries = cache->stats().entries;
      if (!cache->save_file(snapshot.string())) {
        std::cerr << "cannot write " << snapshot << "\n";
        all_ok = false;
      }
    }
    {
      // A restarted service: fresh engine, fresh cache object, warmed
      // entirely from the snapshot — every request must hit.
      auto cache = std::make_shared<serve::ResultCache>(
          serve::CacheOptions{.byte_budget = cache_bytes});
      cache->load_file(snapshot.string());
      serve::MatchingService service(
          service_options(opt, workers, grid + 1, cache));
      const Mix mix = register_suite(service, suite, opt);
      Timer timer;
      (void)closed_loop(service, mix, grid, workers, want, bad);
      reload_ms = timer.elapsed_ms();
      reload_hits = service.stats().cache_hits;
    }
    std::filesystem::remove(snapshot);
    all_ok &= bad.load() == 0 && warm_hits == grid && reload_hits == grid;
    std::cout << "\ncache persistence (" << grid << "-request mix, "
              << workers << " in flight):\n"
              << "  cold pass:        " << cold_ms << " ms (0 hits, "
              << entries << " entries cached)\n"
              << "  warm pass:        " << warm_ms << " ms (" << warm_hits
              << "/" << grid << " hits)\n"
              << "  snapshot reload:  " << reload_ms << " ms ("
              << reload_hits << "/" << grid
              << " hits on a restarted service)\n"
              << "  bad responses:    " << bad.load() << "\n";
  }

  // ---- open loop: fixed arrival rate against a bounded queue --------------
  const double open_rate = cli.get_double("open-rate");
  if (open_rate > 0.0) {
    serve::MatchingService service(service_options(
        opt, levels.empty() ? 4 : levels.back(),
        static_cast<std::size_t>(cli.get_int("queue-depth")), nullptr));
    const Mix mix = register_suite(service, suite, opt);
    const auto interval =
        std::chrono::duration<double>(1.0 / open_rate);
    std::vector<serve::Submission> accepted;
    std::size_t rejected = 0;
    auto due = std::chrono::steady_clock::now();
    Timer timer;
    for (std::size_t i = 0; i < requests; ++i) {
      serve::Submission sub =
          service.submit({.instance = mix.handles[mix.instance_of(i)],
                          .spec = mix.spec_of(i)});
      if (sub.accepted)
        accepted.push_back(std::move(sub));
      else
        ++rejected;
      due += std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          interval);
      std::this_thread::sleep_until(due);
    }
    std::vector<double> lat;
    lat.reserve(accepted.size());
    for (const serve::Submission& sub : accepted)
      lat.push_back(sub.future.get().total_ms);
    const double wall = timer.elapsed_ms();
    std::cout << "\nopen loop at " << open_rate << " req/s: "
              << accepted.size() << " served, " << rejected
              << " rejected (backpressure) in " << wall << " ms; latency p50 "
              << percentile(lat, 50) << " ms, p90 " << percentile(lat, 90)
              << " ms, p99 " << percentile(lat, 99) << " ms\n";
  }

  // ---- socket phase: concurrent clients over the real transport ----------
  const auto socket_clients =
      static_cast<std::size_t>(cli.get_int("socket-clients"));
  if (socket_clients > 0) {
    const auto rounds =
        static_cast<std::size_t>(cli.get_int("socket-requests"));
    const auto connect_port =
        static_cast<std::uint16_t>(cli.get_int("connect"));
    const std::string host = "127.0.0.1";

    // In-process stack when no --connect target: service + sessions +
    // transport, with a per-connection quota generous enough for the
    // rounds (2 lines each) plus the setup/stats/probe traffic — the
    // accounting shows up in the final `stats` lines.
    std::unique_ptr<serve::MatchingService> service;
    std::unique_ptr<serve::SessionContext> context;
    std::unique_ptr<serve::SocketTransport> transport;
    std::uint16_t port = connect_port;
    if (connect_port == 0) {
      service = std::make_unique<serve::MatchingService>(
          service_options(opt, 4, 4096, nullptr));
      context = std::make_unique<serve::SessionContext>(*service);
      serve::TransportOptions topt;
      topt.max_clients = socket_clients + 4;
      topt.session.quota = 2 * rounds + 16;
      transport = std::make_unique<serve::SocketTransport>(*context, topt);
      port = transport->port();
    }

    // Planted-perfect instances: maximum matching = n by construction,
    // so result lines are checked without a reference solve — the same
    // check works against an external server.
    const std::vector<std::pair<std::string, long>> planted = {
        {"sockA", 400}, {"sockB", 650}};
    std::size_t bad = 0;
    {
      serve::LineClient setup(host, port);
      setup.send_line("gen sockA planted 400 2.0 7");
      setup.send_line("gen sockB planted 650 1.5 9");
      for (int i = 0; i < 2; ++i) {
        const auto line = setup.recv_line();
        if (!line || !line->starts_with("instance ")) ++bad;
      }
    }

    std::atomic<std::size_t> served{0};
    std::atomic<std::size_t> client_bad{0};
    Timer timer;
    {
      std::vector<std::thread> threads;
      threads.reserve(socket_clients);
      for (std::size_t c = 0; c < socket_clients; ++c)
        threads.emplace_back([&] {
          try {
            client_bad.fetch_add(
                socket_client_rounds(host, port, rounds, planted, served),
                std::memory_order_relaxed);
          } catch (const std::exception&) {
            client_bad.fetch_add(1, std::memory_order_relaxed);
          }
        });
      for (std::thread& t : threads) t.join();
    }
    const double wall = timer.elapsed_ms();
    bad += client_bad.load();

    // Malformed probes: every one must answer `error ...` — and the
    // connection must still serve a valid command afterwards.
    {
      static const char* kProbes[] = {
          "submit sockA g-pr prio=abc",
          "gen broken uniform -5 10 100 1",
          "gen broken planted 10 1e300 1",
          "poll 99999999999999999999",
          "wait not-a-ticket",
          "submit sockA",
          "bogus-command 1 2 3",
          "load broken /nonexistent/file.mtx",
      };
      serve::LineClient probe(host, port);
      for (const char* p : kProbes) {
        probe.send_line(p);
        const auto line = probe.recv_line();
        if (!line || !line->starts_with("error ")) ++bad;
      }
      probe.send_line("submit sockA hk");
      const auto ticket = probe.recv_line();
      if (!ticket || !ticket->starts_with("ticket ")) ++bad;
    }

    // Final stats: the transport appends one `client ...` accounting
    // line per connection and a `transport ...` summary last.
    std::string transport_line;
    {
      serve::LineClient stats(host, port);
      stats.send_line("stats");
      for (std::optional<std::string> line; (line = stats.recv_line());) {
        if (line->starts_with("client "))
          std::cout << "  " << *line << "\n";
        if (line->starts_with("transport ")) {
          transport_line = *line;
          break;
        }
      }
      if (transport_line.empty()) ++bad;
      if (cli.get_flag("socket-shutdown")) {
        stats.send_line("shutdown");
        const auto line = stats.recv_line();
        if (!line || !line->starts_with("ok shutdown")) ++bad;
      }
    }

    const std::size_t total = socket_clients * rounds;
    all_ok &= bad == 0 && served.load() == total;
    std::cout << "\nsocket phase (" << socket_clients << " clients x "
              << rounds << " submit/wait rounds over TCP"
              << (connect_port == 0
                      ? std::string(", in-process transport")
                      : " against --connect " +
                            std::to_string(connect_port))
              << "):\n"
              << "  wall " << wall << " ms, "
              << static_cast<double>(total) / (wall / 1e3)
              << " req/s; served=" << served.load() << "/" << total
              << " bad=" << bad << "\n"
              << "  " << transport_line << "\n";
    if (transport) transport->stop();
    if (service) service->shutdown();
  }

  try {
    write_observability(opt);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  if (!all_ok) {
    std::cerr << "\nRESULT CHECK FAILED: see bad counts above\n";
    return 1;
  }
  return 0;
}
