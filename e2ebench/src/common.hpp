#pragma once

// Shared plumbing of the end-to-end benchmark: run configuration, the
// metric report printed as the run's last line, the independent
// Hopcroft–Karp oracle, sample statistics, the `bpm_serve` child process,
// and the span analysis that turns the benchmark's trace into per-layer
// self times.

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "graph/bipartite_graph.hpp"
#include "obs/trace.hpp"
#include "serve/transport.hpp"

namespace e2e {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
[[nodiscard]] inline double ms_since(Clock::time_point a) {
  return ms_between(a, Clock::now());
}

/// Everything a run is parameterised by.  Counts are fixed here, never
/// "0 = hardware", so two machines run the same configuration.
struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test size: tiny instances, one set-up, short phases.
  bool tiny = false;
  std::string serve_binary;  ///< the `bpm_serve` built next to the bench
  std::string work_dir;      ///< generated inputs of this run
  std::string trace_dir;     ///< chrome://tracing files of traced runs
  std::string git_sha = "unknown";
  /// Device pool workers per engine and multicore solver threads.  One:
  /// a kernel that fans out to a pool waits on cross-CPU wake-ups, which on
  /// a shared virtual machine stretch from microseconds to milliseconds
  /// with the host's load, so two threads made the slowest jobs' times
  /// (and with them p95 and throughput) swing from run to run.
  unsigned threads = 1;
  unsigned serve_workers = 2;        ///< `bpm_serve --workers`
  unsigned transport_executors = 2;  ///< `bpm_serve --transport-executors`
  unsigned setup_reps = 3;           ///< set-ups per run; setup_s is the median
};

/// The solver specs each workload rotates through (never `auto`).  seq-pr
/// runs without its gap heuristic: with it, seq-pr returns a non-maximum
/// matching on a fraction of a percent of the social analogues
/// (amazon0505 at scale 0.005, generator seed 427, is one), and a
/// workload must not fail.  Metrics name a spec by its solver name alone.
inline const std::vector<std::string> kServeSpecs = {"g-pr-shr",
                                                     "seq-pr:gap=0", "hk"};
inline const std::vector<std::string> kTable1Specs = {
    "g-pr-shr", "g-pr-wb", "seq-pr:gap=0", "hk", "p-dbfs"};

/// The solver name of a spec ("seq-pr" for "seq-pr:gap=0").
[[nodiscard]] inline std::string solver_name(const std::string& spec) {
  return spec.substr(0, spec.find(':'));
}

/// Metrics and accounting of one run, printed by `print_result` as the
/// single JSON object on the last line of standard output.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;

  void metric(const std::string& name, double value, const std::string& unit);
  /// Marks the run incorrect and says why on standard error.
  void wrong(const std::string& what);
};

/// Human-readable line before the result (sample counts, percentiles used,
/// layer checks); never the last line.
void note(const std::string& line);

/// Prints `report` as `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.
void print_result(const Report& report);

/// The benchmark's own maximum-cardinality oracle: a plain Hopcroft–Karp
/// over the column-side CSR, written independently of the library's
/// matchers so a bug they share cannot hide.  Run during input generation,
/// never timed.
[[nodiscard]] bpm::graph::index_t oracle_maximum(
    const bpm::graph::BipartiteGraph& g);

/// `seed` and `salt` mixed into a generator seed (splitmix64).
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

// --- sample statistics ------------------------------------------------------

[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
[[nodiscard]] double mean(const std::vector<double>& values);

/// The tail percentile a sample supports: 0.95, or the highest quantile
/// that still leaves ten samples beyond it when the sample is small.
[[nodiscard]] double tail_quantile(std::size_t samples);

/// One completed request of a measured phase.
struct Sample {
  double done_ms = 0.0;  ///< completion time, ms since the phase started
  double latency_ms = 0.0;
};

/// Median latency of `samples`.
[[nodiscard]] double median_latency(const std::vector<Sample>& samples);

/// Emits `request_ms.p50`, `request_ms.p95`, `throughput_rps` and
/// `success_rate` for one measured phase.  The phase is cut into up to ten
/// windows of consecutive completions, each a whole number of `period`
/// requests (one pass over the workload's mix) and at least 200 of them, so
/// a window's p95 leaves ten samples beyond it; each metric is the median of
/// its per-window values, which keeps a burst of load from other tenants in
/// one window out of the result.  Notes the sample and window counts.
void request_metrics(Report& report, std::vector<Sample> samples,
                     std::size_t period, std::uint64_t attempted,
                     std::uint64_t failed);

// --- machine ----------------------------------------------------------------

/// Prints the machine block (logical CPUs, effective parallelism from a
/// spin calibration, backend, build type, git sha, every count of `cfg`)
/// and warns on standard error when the box delivers less parallelism
/// than the configured solver threads.
void machine_block(const Config& cfg, unsigned clients);

/// Resident and peak resident set of a process from /proc (MiB).
[[nodiscard]] double rss_mb(pid_t pid);
[[nodiscard]] double peak_rss_mb(pid_t pid);
/// Restarts this process's peak-RSS accounting (/proc/self/clear_refs).
void reset_peak_rss();

// --- the server under test --------------------------------------------------

/// A `bpm_serve --listen` child with every count fixed by `Config`.  The
/// constructor returns once the server prints its port; the destructor
/// kills and reaps a child that `shutdown` did not stop.
class ServerProcess {
 public:
  explicit ServerProcess(const Config& cfg);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] pid_t pid() const { return pid_; }

  /// Sends `shutdown` and reaps the child (SIGKILL after a grace period).
  void shutdown();

 private:
  void reap(bool force);

  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::uint16_t port_ = 0;
};

/// One protocol connection: a `serve::LineClient` whose replies are
/// mandatory (a missing reply throws).
class Client {
 public:
  explicit Client(std::uint16_t port);
  /// Sends one line and returns the first reply line.
  std::string call(std::string_view line);
  /// `stats` and every line it answers with, as `key=value` maps by the
  /// line's first word (`stats`, `cache`, `engine`, `transport`).
  std::map<std::string, std::map<std::string, double>> stats();

 private:
  bpm::serve::LineClient line_;
};

/// The number in the `key=<number>` token of a protocol line, or
/// `fallback` when the line has no such token.
[[nodiscard]] double number_field(std::string_view line, std::string_view key,
                                  double fallback = -1.0);

// --- traces -----------------------------------------------------------------

/// A span of category "bench" tagged with the logical request id that all
/// of one request's spans share.
[[nodiscard]] bpm::obs::Span bench_span(bpm::obs::Tracer* tracer,
                                        std::string_view name,
                                        std::uint64_t id);

/// `<trace_dir>/<workload>-seed<n><suffix>.json`: where a traced run's
/// chrome://tracing files go (the benchmark's spans without a suffix, the
/// program's own with `-server` / `-program`).
[[nodiscard]] std::string trace_path(const Config& cfg,
                                     const std::string& suffix = {});

/// Writes `tracer` as chrome://tracing JSON to `trace_path(cfg, suffix)`.
void write_trace(const Config& cfg, const bpm::obs::Tracer& tracer,
                 const std::string& suffix = {});

/// Per-layer self time derived from the benchmark's spans.  Every traced
/// request has a `request` span (what the client observed) and a `replay`
/// span whose children are the layer calls the benchmark made in process
/// for the same request; a child's layer is its name up to the first '.'.
struct SelfTimes {
  std::size_t requests = 0;  ///< ids with both a request and a replay span
  std::map<std::string, double> layer_ms;  ///< mean self ms per request
  std::vector<double> unattributed_ms;     ///< request − replayed layers
  std::vector<double> admit_share;         ///< admit.* / request
};
[[nodiscard]] SelfTimes self_times(
    const std::vector<bpm::obs::TraceEvent>& events);

/// Mean self ms per request of `layer` (0 when it never ran).
[[nodiscard]] double layer_ms(const SelfTimes& st, const std::string& layer);

/// The layers a replay tree can contain, in report order.
inline const std::vector<std::string> kLayers = {
    "proto", "graph", "admit", "store", "cache", "solve", "verify"};

/// Emits `self_ms.<layer>`, `unattributed_ms.p50` and `admit.share`, and
/// notes which layer dominates.
void self_time_metrics(Report& report, const SelfTimes& st);

}  // namespace e2e
