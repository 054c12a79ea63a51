#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "device/device.hpp"
#include "graph/bipartite_graph.hpp"
#include "matching/matching.hpp"

namespace bpm {

/// Static capabilities of a solver, used by harnesses and the pipeline to
/// decide how to schedule a run and how to interpret its results.
struct SolverCaps {
  /// Runs its kernels on the bulk-synchronous device engine; `run` requires
  /// `SolveContext::device` and reports modeled device time.
  bool needs_device = false;
  /// Spawns its own host worker threads (honours `SolveContext::threads`).
  bool multicore = false;
  /// Same execution schedule — and therefore the same matching — on every
  /// run.  False for the racy device kernels and the multicore matcher,
  /// whose *cardinality* is still always maximum but whose edge set depends
  /// on thread interleaving.
  bool deterministic = true;
  /// Guarantees a maximum-cardinality result.  False for the
  /// initialisation heuristics (greedy, Karp–Sipser), which are registered
  /// so that pipelines can run and compare them like any other solver.
  bool exact = true;
  /// Uses edge-balanced (`Device::launch_balanced`) kernels — on or auto
  /// (`GprOptions::balance`).  Listed by `--list-algos`; balanced kernels
  /// thrive on skewed instances and on the engine's work-partitioned
  /// chunks.
  bool balanced = false;
};

/// Unified per-run statistics every solver reports, regardless of backend.
struct SolveStats {
  graph::index_t cardinality = 0;
  double wall_ms = 0.0;          ///< host wall time of the run
  double modeled_ms = 0.0;       ///< device-model time; 0 for CPU solvers
  std::int64_t device_launches = 0;  ///< kernel launches; 0 for CPU solvers
  /// The algorithm's outer-iteration count: main-loop iterations (G-PR),
  /// phases (HK family), or rounds (P-DBFS).  0 for one-shot heuristics.
  std::int64_t iterations = 0;
  std::string detail;  ///< algorithm-specific counters, human-readable
};

struct SolveResult {
  matching::Matching matching;
  SolveStats stats;
};

/// Execution resources handed to a solver.  The caller owns both; a single
/// context (and device) can be reused across many runs and solvers.
struct SolveContext {
  device::Device* device = nullptr;  ///< required when caps().needs_device
  unsigned threads = 0;  ///< workers for multicore solvers (0 = hardware)
  /// Optional trace collector (`obs::Tracer`): when set and enabled, the
  /// run records solve-phase spans (push / global-relabel / frontier
  /// compaction) and per-launch device spans.  Must outlive the run;
  /// tracing must not change the result (the conformance tests assert it).
  obs::Tracer* tracer = nullptr;
};

/// A maximum cardinality bipartite matching algorithm behind a uniform
/// interface.  Implementations adapt the free functions in core/, matching/
/// and multicore/ without touching their kernel logic; instances are
/// created by the `SolverRegistry` and carry per-instance tuning state set
/// via `set_option`.
class Solver {
 public:
  virtual ~Solver() = default;

  /// Canonical registry name ("g-pr-shr", "hk", ...).
  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual SolverCaps caps() const = 0;

  /// Sets a string-typed tuning knob ("k", "strategy", "initial-gr", ...).
  /// Returns false if the solver does not understand `key`; throws
  /// `std::invalid_argument` on a malformed value for a known key.
  virtual bool set_option(std::string_view key, std::string_view value);

  /// Runs the algorithm from the initial matching `init` (which must be
  /// valid for `g`; pass `Matching(g)` for an empty start).  Fills every
  /// applicable `SolveStats` field including wall time.  Throws
  /// `std::invalid_argument` if the context is missing a required device.
  [[nodiscard]] virtual SolveResult run(const SolveContext& ctx,
                                        const graph::BipartiteGraph& g,
                                        const matching::Matching& init) const = 0;
};

/// A parsed solver specification: a registry name plus `set_option`
/// key/value pairs, written `name:key=val,key=val` (e.g. `g-pr-shr:k=1.5`).
/// This is the one grammar every CLI surface (`--algo`), the pipeline, and
/// saved experiment configs use to express a *tuned* solver, so sweeps can
/// select non-default knobs without code changes.
struct SolverSpec {
  std::string name;
  std::vector<std::pair<std::string, std::string>> options;
  /// Provenance: the spec this one was resolved from (e.g. "auto" when
  /// `policy::AutoSolver` picked it for an instance).  Deliberately
  /// EXCLUDED from `canonical()` — the resolved configuration is the
  /// identity, so an `auto` hit and an explicit hit on the same concrete
  /// spec share result-cache entries.  Empty for specs parsed from user
  /// input.
  std::string resolved_from;

  /// Parses one spec.  Throws `std::invalid_argument` (naming the grammar
  /// and the registered solvers) on malformed input; the name itself is
  /// validated later, by `instantiate`.
  [[nodiscard]] static SolverSpec parse(std::string_view spec);

  /// Parses a comma-separated spec list.  A `key=val` token continues the
  /// preceding spec's options, so `g-pr-shr:k=1.5,strategy=fix,hk` is two
  /// specs: a tuned g-pr-shr and a default hk.
  [[nodiscard]] static std::vector<SolverSpec> parse_list(
      std::string_view list);

  /// The spec back as a string, options sorted by key — a stable identity
  /// for cache keys, report headers, and round-tripping.  `resolved_from`
  /// is provenance, not configuration, and never appears here.
  [[nodiscard]] std::string canonical() const;

  /// `SolverRegistry::create(name)` plus `set_option` for every pair.
  /// Throws `std::invalid_argument` for an unknown name (listing the
  /// registry), an unknown option key, or a malformed option value.
  [[nodiscard]] std::unique_ptr<Solver> instantiate() const;
};

/// Name → factory table of every matching algorithm in the library.
///
/// `instance()` arrives pre-populated with the built-in solvers; callers
/// (plugins, experiments) can `add` their own factories, which makes the
/// registry the extension point for new backends — a new algorithm
/// registered here is immediately reachable from every bench harness,
/// example binary, and pipeline without touching any of them.
class SolverRegistry {
 public:
  using Factory = std::function<std::unique_ptr<Solver>()>;

  /// The process-wide registry, with built-ins registered.
  [[nodiscard]] static SolverRegistry& instance();

  /// Registers a factory under a canonical name.  Throws
  /// `std::invalid_argument` if the name is already taken.
  void add(const std::string& name, Factory factory);

  /// Registers an alternative spelling for an existing canonical name
  /// ("g-pr" → "g-pr-shr").  Aliases resolve in `create`/`contains` but do
  /// not appear in `names()`.
  void add_alias(const std::string& alias, const std::string& canonical);

  [[nodiscard]] bool contains(const std::string& name) const;

  /// Instantiates the named solver.  Throws `std::invalid_argument` for an
  /// unknown name, listing the registered names in the message.
  [[nodiscard]] std::unique_ptr<Solver> create(const std::string& name) const;

  /// Canonical names, sorted.
  [[nodiscard]] std::vector<std::string> names() const;

  /// (alias, canonical) pairs, sorted by alias — for `--list-algos`.
  [[nodiscard]] std::vector<std::pair<std::string, std::string>> alias_list()
      const;

  /// names() joined with ", " — for --help strings and error messages.
  [[nodiscard]] std::string names_csv() const;

 private:
  SolverRegistry();

  std::map<std::string, Factory> factories_;
  std::map<std::string, std::string> aliases_;
};

/// One-line convenience: `create(name)` on the global registry and run.
[[nodiscard]] SolveResult solve(const std::string& solver_name,
                                const SolveContext& ctx,
                                const graph::BipartiteGraph& g,
                                const matching::Matching& init);

/// The result-shaped outcome of one verified solver run: the stats, whether
/// the run completed *and* passed verification, and why not otherwise.
/// This is the unit the batched pipeline reports per job and the serving
/// layer's `serve::ResultCache` stores per (instance, solver spec) key.
struct JobOutcome {
  SolveStats stats;
  bool ok = false;
  std::string error;
};

/// Runs `solver` from `init` and, when `verify` is set, checks the result
/// by an O(V+E) certificate instead of a second solve:
///   - the matching is valid: one O(V) pass (`Matching::audit`) checks
///     shape, range and µ agreement for every pair, counts |M|, and looks
///     up in `g` only the pairs that differ from `init` — served solves
///     start from Karp–Sipser and change about 1% of its pairs;
///   - `stats.cardinality` equals that count;
///   - for exact solvers, no augmenting path exists (Berge's theorem, via
///     `matching::is_maximum`).
/// Heuristic solvers are only held to the first two.  On an invalid
/// matching the error is `"invalid matching: "` + `first_violation(g)`.
/// The run is guarded, so a throwing solver yields `ok == false` with the
/// exception text, never an exception.  The check records a `"verify"`
/// span (solver, ok, changed: the pairs looked up) on `ctx.tracer`.
/// Shared by `MatchingPipeline` and `serve::MatchingService` so both
/// layers accept and reject results by exactly the same rules.
///
/// Precondition: `init` is a valid matching of `g`, because the
/// certificate takes every pair carried over from it as an edge.
/// `admit_instance` proves this for every pipeline and served instance
/// (`PipelineInstance::init`), and the bench harnesses prove it where
/// they build their inits (`bench::set_init`).  Every exact solver also
/// rejects an invalid init on entry, so a carried-over pair is proven
/// twice.
///
/// Every library caller passes `verify == true` (false returns any
/// completed run as `ok`); the flag stays only because the end-to-end
/// benchmark (`e2ebench/`) calls this five-argument form.
[[nodiscard]] JobOutcome run_verified(const Solver& solver,
                                      const SolveContext& ctx,
                                      const graph::BipartiteGraph& g,
                                      const matching::Matching& init,
                                      bool verify);

}  // namespace bpm
