#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "device/device.hpp"
#include "graph/bipartite_graph.hpp"
#include "matching/matching.hpp"

namespace bpm {

/// Static capabilities of a solver, used by `Solver::run`, harnesses and
/// the pipeline to decide how to run it and how to judge its results.
struct SolverCaps {
  /// Runs its kernels on the bulk-synchronous device engine; `run` requires
  /// `SolveContext::device`.
  bool needs_device = false;
  /// Guarantees a maximum-cardinality result.  False for the
  /// initialisation heuristics (greedy, Karp–Sipser), which are registered
  /// so that pipelines can run and compare them like any other solver.
  bool exact = true;
};

/// Unified per-run statistics every solver reports, regardless of backend.
/// `Solver::run` fills the first four fields itself; an algorithm reports
/// only `iterations` and `detail`.
struct SolveStats {
  graph::index_t cardinality = 0;  ///< |M| of the returned matching
  double wall_ms = 0.0;            ///< host wall time of the run
  /// Device-model time and kernel launches charged to the context's device
  /// stream during the run; 0 for CPU solvers.
  double modeled_ms = 0.0;
  std::int64_t device_launches = 0;
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
  /// Nothing reads this; ROADMAP item 2 deletes it with its benchmark uses.
  unsigned threads = 0;
  /// Optional trace collector (`obs::Tracer`): when set and enabled, the
  /// run records solve-phase spans (push / global-relabel / frontier
  /// compaction) and per-launch device spans.  Must outlive the run;
  /// tracing must not change the result (the conformance tests assert it).
  obs::Tracer* tracer = nullptr;
};

/// A maximum cardinality bipartite matching algorithm behind a uniform
/// interface.  Implementations adapt the free functions in core/, matching/
/// and multicore/ without touching their kernel logic: each overrides
/// `solve_impl` to run its algorithm, and the non-virtual `run` does the
/// checks, timing and counting that every solver shares.  Instances are
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

  /// Runs the algorithm from the initial matching `init`, proven valid for
  /// `g` by its type, and does the run's bookkeeping once for every solver:
  /// throws `std::invalid_argument` if `caps().needs_device` and the
  /// context has no device, attaches `ctx.tracer` to the device, then times
  /// `solve_impl` and fills `wall_ms`, `device_launches` and `modeled_ms`
  /// (the device stream's counters before and after) and `cardinality`
  /// (one count of the returned matching).
  [[nodiscard]] SolveResult run(const SolveContext& ctx,
                                const graph::BipartiteGraph& g,
                                const matching::ValidMatching& init) const;

  /// Proves `init` valid for `g` (`matching::ValidMatching`, which throws
  /// if it is not), then runs from it.
  [[nodiscard]] SolveResult run(const SolveContext& ctx,
                                const graph::BipartiteGraph& g,
                                matching::Matching init) const {
    return run(ctx, g, matching::ValidMatching(g, std::move(init)));
  }

 protected:
  /// What an algorithm reports of its own run; `run` adds the rest.
  struct Output {
    matching::Matching matching;
    std::int64_t iterations = 0;  ///< see `SolveStats::iterations`
    std::string detail;           ///< see `SolveStats::detail`
  };

  /// The algorithm alone: solve from `init` (`ctx.device` is set if
  /// `caps().needs_device`).
  [[nodiscard]] virtual Output solve_impl(
      const SolveContext& ctx, const graph::BipartiteGraph& g,
      const matching::ValidMatching& init) const = 0;

  /// `solver`'s `solve_impl`, for a solver that delegates its algorithm to
  /// another (`policy::AutoSolver`): the delegating `run` has already done
  /// the bookkeeping, so the delegate's must not run again.
  [[nodiscard]] static Output solve_with(const Solver& solver,
                                         const SolveContext& ctx,
                                         const graph::BipartiteGraph& g,
                                         const matching::ValidMatching& init) {
    return solver.solve_impl(ctx, g, init);
  }
};

/// A parsed solver specification: a registry name plus `set_option`
/// key/value pairs, written `name:key=val,key=val` (e.g. `g-pr-shr:k=1.5`).
/// This is the one grammar every CLI surface (`--algo`), the pipeline, and
/// saved experiment configs use to express a *tuned* solver, so sweeps can
/// select non-default knobs without code changes.
struct SolverSpec {
  std::string name;
  std::vector<std::pair<std::string, std::string>> options;

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
  /// for cache keys, report headers, and round-tripping.
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
                                const matching::ValidMatching& init);

/// The result-shaped outcome of one verified solver run: the stats, whether
/// the run completed *and* passed verification, and why not otherwise.
/// This is the unit the batched pipeline reports per job and the serving
/// layer's `serve::ResultCache` stores per (instance, solver spec) key.
struct JobOutcome {
  SolveStats stats;
  bool ok = false;
  std::string error;
};

class ProvenMaximum;

/// Runs `solver` from `init` and, when `verify` is set, checks the result
/// by an O(V+E) certificate instead of a second solve:
///   - the matching is valid: one O(V) pass (`Matching::audit`) checks
///     shape, range and µ agreement for every pair and looks up in `g`
///     only the pairs that differ from `init` — served solves start from
///     Karp–Sipser and change about 1% of its pairs;
///   - for exact solvers, the matching is maximum: no augmenting path
///     exists (Berge's theorem, via `matching::is_maximum`), or, once
///     `proof` holds ν(g), |M| == ν(g).  A valid M is maximum exactly when
///     |M| = ν(g), so both checks reach the same verdict on every answer.
/// Heuristic solvers are only held to the first.  `stats.cardinality`
/// needs no check: `Solver::run` counts it from the matching.  On an invalid
/// matching the error is `"invalid matching: "` + `first_violation(g)`; a
/// valid M short of maximum fails with `"Berge certificate failed: ..."`
/// either way, and one larger than a proven ν(g) with its own error.
/// The run is guarded, so a throwing solver yields `ok == false` with the
/// exception text, never an exception.  The check records a `"verify"`
/// span (solver, ok, changed: the pairs looked up, proof: `berge` or
/// `proven` when maximality was checked) on `ctx.tracer`.
/// Shared by `MatchingPipeline` and `serve::MatchingService` so both
/// layers accept and reject results by exactly the same rules.
///
/// `proof` is the memo of `g`'s maximum (`PipelineInstance::
/// proven_maximum`); null searches every time, as the bench harnesses do.
/// An exact answer that passes the Berge search records its |M| there,
/// and is the only thing that ever does.
///
/// The certificate takes every pair carried over from `init` as an edge;
/// the type proves that, and neither this nor the solver checks `init`
/// again.
///
/// Every library caller passes `verify == true` (false returns any
/// completed run as `ok`); the flag stays only because the end-to-end
/// benchmark (`e2ebench/`) passes it to the `Matching` overload below.
[[nodiscard]] JobOutcome run_verified(const Solver& solver,
                                      const SolveContext& ctx,
                                      const graph::BipartiteGraph& g,
                                      const matching::ValidMatching& init,
                                      bool verify,
                                      ProvenMaximum* proof = nullptr);

/// Proves `init` valid for `g` first: an invalid one yields `ok == false`
/// with the `ValidMatching` error and runs no solver.
[[nodiscard]] JobOutcome run_verified(const Solver& solver,
                                      const SolveContext& ctx,
                                      const graph::BipartiteGraph& g,
                                      matching::Matching init, bool verify);

/// ν(G), the maximum matching cardinality of one graph, once a Berge
/// search has proven it; `kUnproven` until then.  Only `run_verified`
/// writes it, so a value is always the |M| of an answer that passed the
/// full certificate on that graph.  A copy or a move starts unproven (the
/// proof belongs to the object that earned it, not to whatever graph the
/// copy is given), and assigning one resets the target to unproven.
class ProvenMaximum {
 public:
  static constexpr graph::index_t kUnproven = -1;

  ProvenMaximum() noexcept = default;
  ProvenMaximum(const ProvenMaximum& /*other*/) noexcept {}
  ProvenMaximum& operator=(const ProvenMaximum& /*other*/) noexcept {
    nu_.store(kUnproven);
    return *this;
  }

  /// ν(G), or `kUnproven`.
  [[nodiscard]] graph::index_t get() const noexcept { return nu_.load(); }

 private:
  friend JobOutcome run_verified(const Solver& solver, const SolveContext& ctx,
                                 const graph::BipartiteGraph& g,
                                 const matching::ValidMatching& init,
                                 bool verify, ProvenMaximum* proof);

  std::atomic<graph::index_t> nu_{kUnproven};
};

}  // namespace bpm
