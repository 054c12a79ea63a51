// bpm_serve — a long-running matching service behind a line-delimited
// request protocol, driven from a script file (--script), stdin, or a
// TCP socket (--listen).  The service owns one device engine
// (--device-threads) for its whole lifetime and runs up to --workers
// dispatches on it at once, one request and one stream each.  It dedups
// registered graphs by structural fingerprint, dispatches requests from a
// bounded queue in strict priority order, and (with --cache-bytes > 0)
// serves repeated (instance, solver spec) requests from a persistent
// result cache that can be snapshotted to disk and reloaded on restart.
// Every count, size and port flag is range-checked: an out-of-range
// value is an error naming the flag, never a silent wrap.
//
//   bpm_serve --script examples/serve_smoke.req
//   bpm_serve --workers 4 < requests.txt
//   bpm_serve --listen 7471 --quota 1000 --auth-token s3cret
//   bpm_serve --cache-load warm.cache --cache-save warm.cache < requests.txt
//
// Protocol (one command per line; '#' starts a comment):
//   auth <token>                       authenticate (only if the server
//                                      runs with --auth-token)
//   load <name> <file.mtx>             register a Matrix Market graph
//   gen <name> uniform <rows> <cols> <edges> <seed>
//   gen <name> planted <n> <extra_degree> <seed>
//   gen <name> chung-lu <rows> <cols> <avg_degree> <gamma> <seed>
//   gen <name> instance <paper-name> <scale> <seed>
//   gen <name> huge <rows> <cols> <avg_degree> <hub_fraction> <hub_every> <seed>
//   submit <instance> <spec> [prio=<n>] [deadline=<ms>]   -> ticket <id>
//                                      <spec> may be `auto` (recommended
//                                      default: the calibrated cost model
//                                      picks the cheapest solver for the
//                                      instance's features).  The result
//                                      line names the concrete choice as
//                                      solver=<spec>, resolved_from=auto.
//   poll <ticket>                      non-blocking status check
//   wait <ticket>                      block until the result line
//   drain                              block until the queue is empty
//   stats                              service + cache + engine counters,
//                                      plus one `solver ...` wall-time line
//                                      (count / mean / p90 ms) per solved
//                                      spec (over --listen: plus one
//                                      `client ...` accounting line per
//                                      connection and a final
//                                      `transport ...` summary)
//   metrics                            global metrics registry as JSON
//                                      (queue depth, engine dispatches,
//                                      cache hit rate, latency percentiles)
//   trace-start <path>                 start recording a chrome://tracing
//                                      timeline of every served request
//   trace-dump                         write the timeline to the path given
//                                      at trace-start (recording continues)
//   save-cache <path> | load-cache <path>
//   shutdown                           stop accepting, drain, exit
//
// Every request is decoded against the typed schema in serve/proto:
// numbers are parsed checked (full-token, range-validated — never a raw
// stoi), dimensions/degrees are bounds-checked before a generator runs,
// and any malformed line answers a single machine-readable
//   error code=<kebab-name> msg="<detail>"
// line instead of terminating the process.  In script/stdin mode errors
// also fail the final exit code unless --tolerate-errors; over --listen
// they only count against the offending client.  With --quota N each
// connection may execute at most N commands (then `error
// code=quota-exceeded`); with --auth-token T every connection must `auth
// T` first.  Lines longer than --max-line end the offending session.

#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>

#include "obs/metrics.hpp"
#include "serve/service.hpp"
#include "serve/session.hpp"
#include "serve/transport.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace bpm;

  CliParser cli("bpm_serve",
                "long-running matching service driven by a line-delimited "
                "request protocol (script file, stdin, or TCP socket)");
  cli.add_option("script", "request script (empty = read stdin)", "");
  cli.add_option("workers", "concurrent dispatches, one device stream each",
                 "2");
  cli.add_option("device-threads", "engine pool workers (0 = hardware)",
                 "0");
  cli.add_option("backend",
                 "accepted for compatibility; `host` is the only value",
                 "host");
  cli.add_option("queue-depth", "admission queue bound (>= 1)", "256");
  cli.add_option("retention",
                 "completed tickets kept for poll/wait before eviction "
                 "(0 = keep all)",
                 "65536");
  cli.add_option("cache-bytes", "result cache budget in bytes (0 = no cache)",
                 std::to_string(std::size_t{64} << 20));
  cli.add_option("cache-load", "warm the cache from this snapshot on start",
                 "");
  cli.add_option("cache-save", "snapshot the cache here on shutdown", "");
  cli.add_flag("echo", "echo every protocol command before its reply");
  cli.add_option("listen",
                 "after the script/stdin phase, serve a TCP socket on this "
                 "port until a client sends `shutdown` (0 = ephemeral port; "
                 "empty = no socket)",
                 "");
  cli.add_option("auth-token",
                 "socket clients must `auth <token>` first (empty = off)",
                 "");
  cli.add_option("quota",
                 "max commands per socket connection (0 = unlimited)", "0");
  cli.add_option("max-line", "per-connection line budget in bytes", "65536");
  cli.add_option("max-clients", "concurrent socket connections", "64");
  cli.add_option("transport-executors",
                 "socket command executor threads (0 = 4)", "0");
  cli.add_flag("tolerate-errors",
               "script/stdin `error ...` responses do not fail the exit "
               "code (malformed-input smoke runs)");

  try {
    cli.parse(argc, argv);
    // Range-checked reads: a negative or oversized value is an error
    // naming the flag, not a silent wrap into the unsigned field.
    const auto count = [&](const char* flag) {
      return static_cast<unsigned>(
          cli.get_int(flag, 0, std::numeric_limits<unsigned>::max()));
    };
    const auto size = [&](const char* flag, std::int64_t min = 0) {
      return static_cast<std::size_t>(
          cli.get_int(flag, min, std::numeric_limits<std::int64_t>::max()));
    };

    serve::ServiceOptions opt;
    opt.workers = count("workers");
    if (const std::string backend = cli.get_string("backend");
        backend != "host")
      throw std::invalid_argument(
          "--backend=" + backend +
          ": the sim backend is gone; every engine reports both modeled "
          "and measured time, and `host` is the only accepted value");
    opt.device_threads = count("device-threads");
    opt.queue_depth = size("queue-depth", 1);  // depth 0 would reject all
    opt.completed_ticket_retention = size("retention");
    const std::size_t cache_bytes = size("cache-bytes");
    if (cache_bytes > 0)
      opt.cache = std::make_shared<serve::ResultCache>(
          serve::CacheOptions{.byte_budget = cache_bytes});

    serve::Session::Options local_options;
    local_options.limits.max_line_bytes = size("max-line");
    const bool listen = !cli.get_string("listen").empty();
    serve::TransportOptions topt;
    if (listen)
      topt.port = static_cast<std::uint16_t>(
          cli.get_int("listen", 0, std::numeric_limits<std::uint16_t>::max()));
    topt.max_clients = size("max-clients");
    topt.executors = count("transport-executors");
    topt.session.auth_token = cli.get_string("auth-token");
    topt.session.quota = size("quota");
    topt.session.limits = local_options.limits;

    serve::MatchingService service(opt);
    // Shared by the local session and every socket session; holds the
    // tracer the service points into, so it outlives all of them.
    serve::SessionContext context(service);
    if (!cli.get_string("cache-load").empty() && service.cache()) {
      const std::size_t n =
          service.cache()->load_file(cli.get_string("cache-load"));
      std::cout << "cache warmed with " << n << " entries from "
                << cli.get_string("cache-load") << "\n";
    }

    std::ifstream script;
    const bool from_file = !cli.get_string("script").empty();
    if (from_file) {
      script.open(cli.get_string("script"));
      if (!script)
        throw std::runtime_error("cannot read script '" +
                                 cli.get_string("script") + "'");
    }
    const bool echo = cli.get_flag("echo") || from_file;

    // Phase 1: the local script/stdin session.  With --listen and no
    // --script, stdin is skipped entirely (the socket is the interface).
    bool shutdown_seen = false;
    std::uint64_t local_errors = 0;
    if (from_file || !listen) {
      serve::Session session(context, local_options);
      std::istream& in = from_file ? script : std::cin;
      for (std::string line; std::getline(in, line);) {
        if (echo) std::cout << "> " << line << "\n";
        const serve::Session::Outcome out = session.execute(line);
        for (const std::string& l : out.lines) std::cout << l << "\n";
        if (out.shutdown) {
          shutdown_seen = true;
          break;
        }
        if (out.close) break;  // oversized line: framing is suspect
      }
      local_errors = session.errors();
    }

    // Phase 2: the socket transport, until a client sends `shutdown`.
    if (listen && !shutdown_seen) {
      serve::SocketTransport transport(context, topt);
      std::cout << "listening on " << transport.port() << std::endl;
      transport.wait_shutdown();
      transport.stop();
      const serve::TransportStats ts = transport.stats();
      std::cout << "transport served accepted=" << ts.accepted
                << " refused=" << ts.refused << " closed=" << ts.closed
                << " lines=" << ts.lines << " errors=" << ts.errors << "\n";
    }

    service.shutdown();
    if (!cli.get_string("cache-save").empty() && service.cache()) {
      if (!service.cache()->save_file(cli.get_string("cache-save")))
        throw std::runtime_error("cannot write cache snapshot '" +
                                 cli.get_string("cache-save") + "'");
      std::cout << "cache snapshot written to " << cli.get_string("cache-save")
                << "\n";
    }
    const bool failed = local_errors > 0 && !cli.get_flag("tolerate-errors");
    return failed ? 1 : 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
