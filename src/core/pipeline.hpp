#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/solver.hpp"
#include "device/device.hpp"
#include "graph/bipartite_graph.hpp"
#include "matching/matching.hpp"
#include "policy/features.hpp"

namespace bpm {

namespace serve {
class ResultCache;
}  // namespace serve

struct PipelineOptions {
  /// Nothing reads this; ROADMAP item 2 deletes it with its benchmark uses.
  device::Backend device_backend = device::Backend::kHost;
  unsigned device_threads = 0;  ///< device pool workers (0 = hardware)
  unsigned solver_threads = 0;  ///< multicore solver workers (0 = hardware)
  /// Nothing reads this; ROADMAP item 2 deletes it with its benchmark uses.
  unsigned max_concurrent_jobs = 0;
  /// Build the initial matching once per instance and hand it to every
  /// solver; false starts every job from an empty matching instead.
  bool share_init = true;
  /// How the shared init is built; defaults to `matching::karp_sipser`,
  /// which leaves far fewer columns for the solvers than the paper's cheap
  /// greedy heuristic (set `matching::cheap_matching` for the paper's
  /// setup, as the paper-figure harnesses do).
  std::function<matching::Matching(const graph::BipartiteGraph&)> init_builder;
  /// Optional trace sink: each admitted job records a `"job"` span (solver
  /// spec, instance fingerprint, cache outcome) and hands the tracer to its
  /// solve (`SolveContext::tracer`), so one timeline shows the jobs above
  /// the per-solve phase spans.  Must outlive the batch; null or disabled
  /// costs one branch per job.
  obs::Tracer* tracer = nullptr;
};

/// One graph admitted to the batch, with everything that is computed once
/// and reused across all solvers that run on it.
struct PipelineInstance {
  std::string name;
  graph::BipartiteGraph graph;
  /// Shared initial matching (see share_init).  Invariant: a valid
  /// matching of `graph`.  `admit_instance` proves it; a caller that
  /// builds an instance itself must guarantee it.  `run_verified` relies
  /// on it: each job's certificate looks up only the pairs its solve
  /// changed.
  matching::Matching init;
  graph::index_t initial_cardinality = 0;
  /// Never computed or read by the library: results are verified by
  /// certificate, not against a reference maximum.  Kept only because the
  /// end-to-end benchmark (`e2ebench/`) assigns it, until ROADMAP item 9
  /// deletes that assignment and this field.
  graph::index_t maximum_cardinality = -1;
  /// Structural hash of the graph (dimensions + CSR arrays): two admitted
  /// instances with equal fingerprints are the same graph, which is what
  /// keys the result cache.
  std::uint64_t fingerprint = 0;
  /// Column-degree skew (max/mean over non-empty columns), computed once
  /// at admission; mirrors `features.degree_skew`.
  double degree_skew = 0.0;
  /// The full feature vector behind `degree_skew` (size, density,
  /// deficiency), computed once at admission: what
  /// `policy::AutoSolver` resolves against at dispatch time.  Cached here
  /// means cached on `serve::InstanceStore` entries, which dedup by
  /// `fingerprint`.
  policy::InstanceFeatures features;
};

/// Builds the per-instance shared state the honoured `options` ask for:
/// the shared init (Karp–Sipser unless `init_builder` says otherwise) and
/// the policy features.  Throws `std::invalid_argument` if the init is not
/// a valid matching of the graph, so an admitted init is always valid
/// (`PipelineInstance::init`).  No reference solve runs here, and the
/// fingerprint is left 0: `MatchingPipeline::add_instance` and
/// `serve::InstanceStore` fill it, the store from the hash it already
/// took for its dedup probe.  Both admit through this (the store with
/// default options), so a default pipeline batch and a serving process
/// agree bit-for-bit on inits and fingerprints.
[[nodiscard]] PipelineInstance admit_instance(std::string name,
                                              graph::BipartiteGraph graph,
                                              const PipelineOptions& options);

/// Outcome of one (instance × solver) job.
struct PipelineJob {
  std::size_t instance = 0;  ///< index into MatchingPipeline::instances()
  std::string solver;
  SolveStats stats;
  bool ok = false;    ///< ran to completion and passed verification
  std::string error;  ///< why not, when !ok
};

struct PipelineTotals {
  std::size_t jobs = 0;
  std::size_t failed = 0;
  std::int64_t matched_pairs = 0;  ///< sum of job cardinalities
  std::int64_t device_launches = 0;
  double wall_ms = 0.0;     ///< sum of per-job wall times (solver cost)
  double modeled_ms = 0.0;  ///< sum of modeled device times
};

struct PipelineReport {
  std::vector<PipelineJob> jobs;  ///< instance-major (instance × solver) order
  PipelineTotals totals;

  [[nodiscard]] bool all_ok() const { return totals.failed == 0; }
};

/// One pre-admitted job for `run_admitted_job`: a borrowed admitted
/// instance, a borrowed solver, and the canonical spec identifying the
/// solver's configuration in the result cache (empty keeps the job out of
/// the cache).  All three fields are borrowed; the caller keeps them alive
/// for the call.
struct AdmittedJob {
  const PipelineInstance* instance = nullptr;
  const Solver* solver = nullptr;
  std::string_view cache_key;
};

struct AdmittedJobResult {
  JobOutcome outcome;
  bool cached = false;    ///< served from the cache without solving; cost
                          ///< fields are zeroed, never re-charged
  double solve_ms = 0.0;  ///< this job's own solve+verify wall (0 if cached)
};

/// Runs one pre-admitted job: probes `cache` (when the job carries a
/// cache key), otherwise solves and verifies by certificate
/// (`run_verified`), and publishes an `ok` result back.  `stream` is only
/// invoked when the job actually solves, so a cache hit touches no device
/// at all.  The per-job seam shared by `MatchingPipeline::run_specs`
/// (which passes no cache) and `serve::MatchingService`'s dispatch.
[[nodiscard]] AdmittedJobResult run_admitted_job(
    const AdmittedJob& job, const std::function<device::Device&()>& stream,
    serve::ResultCache* cache, const PipelineOptions& options);

/// Batched matching runs: an (instance × solver spec) grid run in
/// instance-major order on the pipeline's one device stream, with the
/// initial matching built once per instance and every job verified by
/// certificate.  Admit graphs with `add_instance`, then run a solver set
/// over the whole batch with `run` — any registry name or tuned spec
/// (`g-pr-shr:k=1.5`) works, including solvers registered after this
/// library was built.  Every job solves; running jobs side by side and
/// caching their results is `serve::MatchingService`'s job.
///
/// ```
/// MatchingPipeline pipe({.device_threads = 4});
/// pipe.add_instance("a", graph_a);
/// pipe.add_instance("b", graph_b);
/// PipelineReport rep = pipe.run({"g-pr-shr:k=1.5", "hk", "p-dbfs"});
/// // rep.jobs: 6 verified results; rep.totals: aggregate stats.
/// ```
class MatchingPipeline {
 public:
  explicit MatchingPipeline(PipelineOptions options = {});

  /// Admits a graph to the batch; builds the shared init once.
  /// Returns the instance index used in `PipelineJob::instance`.
  std::size_t add_instance(std::string name, graph::BipartiteGraph graph);

  /// Admits an already-built instance (e.g. a harness's precomputed suite
  /// or another pipeline's) without redoing the init / feature work;
  /// the caller guarantees its fields are consistent with this pipeline's
  /// options, its init valid included.  A zero fingerprint is computed.
  std::size_t add_instance(PipelineInstance instance);

  [[nodiscard]] const std::vector<PipelineInstance>& instances() const {
    return instances_;
  }

  /// Runs every solver in `solver_specs` on every admitted instance.  Each
  /// entry is a registry name or a tuned spec (`SolverSpec` grammar); a
  /// job that throws or fails verification is recorded with `ok == false`
  /// and does not abort the batch.
  [[nodiscard]] PipelineReport run(
      const std::vector<std::string>& solver_specs);

  /// Same, over parsed specs.  Each job is labelled by its spec's
  /// canonical form, so tuned variants of one solver are tellable apart.
  [[nodiscard]] PipelineReport run_specs(const std::vector<SolverSpec>& specs);

  /// The stream every device job of the batch runs on, on a private
  /// engine of `device_threads` workers (also for one-off runs outside
  /// the batch).
  [[nodiscard]] device::Device& device() { return device_; }

 private:
  PipelineOptions options_;
  device::Device device_;
  std::vector<PipelineInstance> instances_;
};

}  // namespace bpm
