#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/solver.hpp"
#include "device/device.hpp"
#include "graph/instances.hpp"
#include "matching/matching.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "policy/features.hpp"
#include "util/cli.hpp"

namespace bpm::bench {

/// Options common to all paper-artifact harnesses.
struct SuiteOptions {
  double scale = 1.0 / 64.0;  ///< instance size relative to the paper's
  std::uint64_t seed = 1;
  int stride = 1;             ///< take every stride-th instance
  unsigned threads = 0;       ///< device / multicore workers, 0 = hw
  /// Concurrent jobs (`--jobs`, every harness): `build_suite` builds up to
  /// this many instances at once (0 = hardware).  Solves stay sequential,
  /// because the paper harnesses report per-run times, which overlapping
  /// jobs on one host would skew.
  unsigned jobs = 1;
  bool verbose = false;
  bool csv = false;
  /// Cross-architecture artifacts (Fig 2-4, Table I) use the modeled
  /// C2050 device time for GPU algorithms by default (README: Device
  /// engine); --no-model switches them to measured host wall time.
  bool no_model = false;
  /// Solvers selected with --algo (parsed specs, possibly with tuning
  /// options, e.g. `g-pr-shr:k=1.5`), when the harness registered the
  /// flag.  Instantiate with `spec.instantiate()`; label columns with
  /// `spec.canonical()` so tuned runs are distinguishable.
  std::vector<SolverSpec> algos;
  /// `--json <path>`: write the (instance × algo) results as a
  /// machine-readable JSON document next to the human tables (see
  /// `write_json`).  Empty = off.  This is how BENCH_*.json perf
  /// trajectories are recorded.
  std::string json_path;
  /// `--trace <path>`: record the whole harness run — solve phases and
  /// device launches — into a chrome://tracing JSON
  /// written by `write_observability`.  Empty = tracing off (the hot
  /// paths see a single disabled-tracer check).
  std::string trace_path;
  /// `--metrics <path>`: snapshot `obs::Registry::global()` to JSON at
  /// harness end (`write_observability`).  Empty = off.
  std::string metrics_path;
  /// The trace sink backing `--trace`, created enabled by
  /// `observability_from_cli`; null when tracing is off.  Attach it to
  /// harness streams with `attach_tracer` / `SolveContext::tracer`.
  std::shared_ptr<obs::Tracer> trace_sink;

  [[nodiscard]] obs::Tracer* tracer() const { return trace_sink.get(); }
};

/// Registers the shared flags on `cli`; call `cli.parse` afterwards and
/// then `suite_options_from_cli`.  `default_stride` lets expensive sweeps
/// (Figure 1 runs 21 configurations) default to a subset of the 28.
/// A non-empty `default_algos` additionally registers --algo, letting the
/// harness run any set of registry solvers without code changes.
/// `with_json` registers `--json <path>` — only harnesses that actually
/// call `write_json` pass true, so the flag fails loudly (unknown-flag
/// error) instead of being silently ignored elsewhere.
void register_suite_flags(CliParser& cli, int default_stride = 1,
                          const std::string& default_algos = "",
                          bool with_json = false);
[[nodiscard]] SuiteOptions suite_options_from_cli(const CliParser& cli);

/// Registers `--trace` / `--metrics` alone — for harnesses with a
/// hand-rolled flag set (`register_suite_flags` already includes them).
void register_observability_flags(CliParser& cli);
/// Reads `--trace` / `--metrics` into `opt` and creates the enabled trace
/// sink when `--trace` is set.  `suite_options_from_cli` calls this;
/// hand-rolled harnesses call it after `cli.parse`.
void observability_from_cli(const CliParser& cli, SuiteOptions& opt);
/// Attaches the suite's trace sink (if any) to a device stream so its
/// launches are recorded; returns `dev` for inline use.
device::Device& attach_tracer(const SuiteOptions& opt, device::Device& dev);
/// Writes the `--trace` / `--metrics` artifacts; no-op for empty paths,
/// so every harness calls it unconditionally before exiting.  Throws
/// `std::runtime_error` on I/O failure.
void write_observability(const SuiteOptions& opt);

/// One generated instance with its cheap-matching initialisation.
/// The paper times all algorithms *after* the common greedy init, so the
/// init is built once here and handed to every algorithm.  Results on it
/// are accepted by certificate (`run_solver`), so it carries no maximum.
struct BuiltInstance {
  graph::Instance meta;
  graph::BipartiteGraph g;
  matching::Matching init;
  graph::index_t initial_cardinality = 0;
  /// Policy features of the instance (size, density, skew, deficiency) —
  /// the same `policy::compute_features` vector the serving layer caches
  /// at admission, recorded into every `--json` record so offline tooling
  /// can correlate timings with instance shape.  Filled by `set_init`.
  policy::InstanceFeatures features;
};

/// Installs `init` as `bi`'s initial matching and fills
/// `initial_cardinality` and `features` from it.  Throws
/// `std::invalid_argument` if `init` is not a valid matching of `bi.g`:
/// `run_verified` takes every pair a solve carries over from the init as
/// an edge.  Every harness builds its inits through this.
void set_init(BuiltInstance& bi, matching::Matching init);

/// Generates the (strided) instance suite at the requested scale.
/// Builds `opt.jobs` instances concurrently (generation and the init
/// dominate harness start-up); the returned order and contents are
/// identical at any concurrency.
[[nodiscard]] std::vector<BuiltInstance> build_suite(const SuiteOptions& opt);

/// Builds a single instance by Table I id (1–28).
[[nodiscard]] BuiltInstance build_instance(const graph::Instance& meta,
                                           const SuiteOptions& opt);

/// The `massive` suite: instances ~10x the edge count of the largest
/// Table I analogue at default scale, built with the streamed
/// `gen::huge_bipartite` (no intermediate edge list, so peak memory is
/// the final CSR).  `opt.scale` multiplies the default-size vertex counts
/// relative to 1.0 (NOT the 1/64 Table I convention — massive instances
/// are already sized absolutely); `opt.seed` feeds the generator.  Results
/// on it are certificate-checked like every other suite's.
[[nodiscard]] std::vector<BuiltInstance> build_massive_suite(
    const SuiteOptions& opt);

/// One member of the policy calibration/evaluation suite.
struct PolicyInstance {
  std::string suite;  ///< "uniform" | "skew" | "massive" | "structured"
  BuiltInstance bi;
};

/// The shared instance suite behind `policy_calibrate` and `auto_policy`:
/// the uniform and skew groups of `balance_skew` (same generators and
/// parameters, sized by `n`), a structured group of Table I shapes
/// (meshes, road networks, co-author graphs — near-perfect greedy inits
/// where the augmenting-path family beats push-relabel, at
/// `structured_scale` of the paper sizes; 0 skips the group), plus —
/// when `massive_scale > 0` — the massive suite at that scale.  Every
/// member starts from the Karp–Sipser init the service admits with, not
/// the paper's cheap one.  Calibration and evaluation MUST agree on this
/// suite: the committed cost model's buckets are only meaningful for the
/// shapes they were measured on, and the headline auto-vs-oracle
/// comparison re-generates the same shapes (different seeds still land in
/// the same buckets).
[[nodiscard]] std::vector<PolicyInstance> build_policy_suite(
    graph::index_t n, double massive_scale, std::uint64_t seed,
    double structured_scale = 0.0);

/// Result of timing one algorithm on one instance.  Every run goes through
/// `run_verified`, the pipeline's and the service's O(V+E) certificate:
/// the matching is valid, the stats match it, and for exact solvers no
/// augmenting path exists.  `ok == false` flags a failed check or a
/// throwing solver (and makes the harness exit nonzero).
struct AlgoResult {
  double seconds = 0.0;          ///< host wall time of the run
  double modeled_seconds = 0.0;  ///< device-model time; 0 for CPU algorithms
  graph::index_t cardinality = 0;
  std::int64_t launches = 0;     ///< device kernel launches; 0 for CPU
  bool ok = false;
  /// Per-phase wall ms of this run ("push", "global-relabel",
  /// "frontier-compaction", ...), diffed from the suite tracer around the
  /// solve.  Empty when tracing is off or the solver records no phases.
  std::map<std::string, double> phases;
};

/// The time to report for a device algorithm in cross-architecture
/// comparisons: modeled C2050 time unless --no-model.
[[nodiscard]] inline double device_seconds(const AlgoResult& r,
                                           const SuiteOptions& opt) {
  return opt.no_model || r.modeled_seconds == 0.0 ? r.seconds
                                                  : r.modeled_seconds;
}

/// Runs a configured solver instance on `bi` through `run_verified` — the
/// one dispatch path every harness uses.  A failed check prints the
/// certificate's error to stderr.
[[nodiscard]] AlgoResult run_solver(const Solver& solver, device::Device& dev,
                                    const BuiltInstance& bi,
                                    unsigned threads = 0);

/// Registry-name convenience: `run_solver(*registry.create(name), ...)`.
[[nodiscard]] AlgoResult run_solver(const std::string& name,
                                    device::Device& dev,
                                    const BuiltInstance& bi,
                                    unsigned threads = 0);

/// Prints the standard harness header (instance count, scale, hardware).
void print_header(const std::string& title, const SuiteOptions& opt,
                  std::size_t num_instances);

// ---- machine-readable results (`--json`) -----------------------------------

/// One (instance × algo) measurement of a harness run.  `suite` tags the
/// instance group ("uniform", "skew", a Table I class, ...) so downstream
/// tooling can aggregate without parsing instance names.
struct JsonRecord {
  std::string instance;
  std::string suite;
  std::string algo;  ///< canonical solver spec (`SolverSpec::canonical`)
  double wall_s = 0.0;
  double modeled_s = 0.0;
  std::int64_t launches = 0;
  graph::index_t matched = 0;
  bool ok = false;
  /// Per-phase ms (`AlgoResult::phases`); emitted as an optional
  /// `"phases"` sub-object when non-empty, so records stay byte-identical
  /// to pre-tracing ones when tracing is off.
  std::map<std::string, double> phases;
  /// Policy features of the instance (n, m, density, skew, deficiency_est) — a `"features"` sub-object on every record since
  /// schema 2, so downstream tooling can correlate timings with instance
  /// shape without regenerating the graphs.
  std::map<std::string, double> features;
};

/// An `AlgoResult` as a record, labels supplied by the caller.  Pass the
/// instance's `BuiltInstance::features` so the record carries the schema-2
/// `"features"` sub-object.
[[nodiscard]] JsonRecord to_json_record(
    const std::string& instance, const std::string& suite,
    const std::string& algo, const AlgoResult& r,
    const policy::InstanceFeatures* features = nullptr);

/// Writes `{"bench": ..., "schema": 2, "records": [...], "summary":
/// {...}}` with a stable field order, records in input order, and summary
/// metrics sorted by the caller's order.  Schema 2 adds the per-record
/// `"features"` sub-object (schema 1 documents were unversioned).  Throws
/// `std::runtime_error` if the file cannot be written.  No-op when `path`
/// is empty, so harnesses can pass `opt.json_path` unconditionally.
void write_json(const std::string& path, const std::string& bench,
                const std::vector<JsonRecord>& records,
                const std::vector<std::pair<std::string, double>>& summary);

}  // namespace bpm::bench
