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
  /// Backend of the pipeline's shared device engine: the modeled C2050
  /// simulator or the real multicore host executor
  /// (`device::HostParallelEngine`).
  device::Backend device_backend = device::default_backend();
  /// Execution mode of the pipeline's shared device engine (used by every
  /// needs-device solver in the batch).
  device::ExecMode device_mode = device::ExecMode::kConcurrent;
  unsigned device_threads = 0;  ///< device pool workers (0 = hardware)
  unsigned solver_threads = 0;  ///< multicore solver workers (0 = hardware)
  /// Upper bound on (instance × solver) jobs in flight at once, each on
  /// its own device stream (0 = hardware concurrency).  1 reproduces the
  /// sequential schedule exactly; the report order is identical either
  /// way.
  unsigned max_concurrent_jobs = 0;
  /// Serve a job whose (instance fingerprint, solver spec) pair already
  /// occurred earlier in the batch from that job's result instead of
  /// re-solving; hits are flagged on the job and counted in the totals.
  bool cache_results = true;
  /// Optional process-lifetime result cache shared *across* batches (and
  /// with `serve::MatchingService`): jobs selected by canonical spec
  /// (`run`/`run_specs`) consult it before solving and publish verified
  /// results into it.  Jobs from `run_with` never touch it — a caller-tuned
  /// solver object's configuration is not observable, so it has no stable
  /// cross-batch identity.  Null (the default) keeps caching batch-local.
  std::shared_ptr<serve::ResultCache> shared_cache;
  /// Check every job's matching by certificate (`run_verified`):
  /// edge-validity and a cardinality that agrees with the reported stats
  /// for every solver, plus Berge's no-augmenting-path check for exact
  /// ones.  Only verified results are published to `shared_cache`.
  bool verify = true;
  /// Build the initial matching once per instance and hand it to every
  /// solver; false starts every job from an empty matching instead.
  bool share_init = true;
  /// How the shared init is built; defaults to the paper's cheap greedy
  /// heuristic (set e.g. matching::karp_sipser for a stronger start).
  std::function<matching::Matching(const graph::BipartiteGraph&)> init_builder;
  /// Optional trace sink: each admitted job records a `"job"` span (solver
  /// spec, instance fingerprint, cache outcome) and hands the tracer to its
  /// solve (`SolveContext::tracer`), so one timeline shows the scheduler's
  /// job packing above the per-solve phase spans.  Must outlive the batch;
  /// null or disabled costs one branch per job.
  obs::Tracer* tracer = nullptr;
};

/// One graph admitted to the batch, with everything that is computed once
/// and reused across all solvers that run on it.
struct PipelineInstance {
  std::string name;
  graph::BipartiteGraph graph;
  matching::Matching init;  ///< shared greedy init (see share_init)
  graph::index_t initial_cardinality = 0;
  /// Never computed or read by the library: results are verified by
  /// certificate, not against a reference maximum.  Kept only because the
  /// end-to-end benchmark (`e2ebench/`) assigns it, until ROADMAP item 8
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
/// the shared init, the structural fingerprint and the policy features.
/// No reference solve runs here.  `MatchingPipeline::add_instance` and
/// `serve::InstanceStore` both admit through this, so a pipeline batch and
/// a serving process agree bit-for-bit on inits and cache identity.
[[nodiscard]] PipelineInstance admit_instance(std::string name,
                                              graph::BipartiteGraph graph,
                                              const PipelineOptions& options);

/// Outcome of one (instance × solver) job.
struct PipelineJob {
  std::size_t instance = 0;  ///< index into MatchingPipeline::instances()
  std::string solver;
  SolveStats stats;
  bool ok = false;     ///< ran to completion and passed verification
  bool cached = false; ///< served from an earlier identical job; wall/model
                       ///< time and launches are not re-charged
  std::string error;   ///< why not, when !ok
};

struct PipelineTotals {
  std::size_t jobs = 0;
  std::size_t failed = 0;
  std::size_t cache_hits = 0;      ///< jobs served without re-solving
  std::int64_t matched_pairs = 0;  ///< sum of job cardinalities
  std::int64_t device_launches = 0;
  double wall_ms = 0.0;     ///< sum of per-job wall times (solver cost)
  double modeled_ms = 0.0;  ///< sum of modeled device times
  /// Wall time of the whole batch, scheduler included.  With concurrent
  /// jobs this is below `wall_ms` (jobs overlap); do not conflate the two:
  /// `wall_ms` answers "how much solver work ran", `batch_wall_ms` answers
  /// "how long did the caller wait".
  double batch_wall_ms = 0.0;
};

struct PipelineReport {
  std::vector<PipelineJob> jobs;  ///< instance-major (instance × solver) order
  PipelineTotals totals;

  [[nodiscard]] bool all_ok() const { return totals.failed == 0; }

  /// The jobs of one instance, in solver order.
  [[nodiscard]] std::vector<const PipelineJob*> jobs_for(
      std::size_t instance) const;
};

/// One pre-admitted job for `run_admitted_jobs`: a borrowed admitted
/// instance, a borrowed solver, and the canonical spec identifying the
/// solver's configuration in the result cache (empty keeps the job out of
/// the cache and out of in-batch dedup — the `run_with` rule).  All three
/// fields are borrowed; the caller keeps them alive for the call.
struct AdmittedJob {
  const PipelineInstance* instance = nullptr;
  const Solver* solver = nullptr;
  std::string_view cache_key;
};

struct AdmittedJobResult {
  JobOutcome outcome;
  bool cached = false;    ///< served without solving (cache or in-batch dup);
                          ///< cost fields are zeroed, never re-charged
  bool in_batch_dup = false;  ///< cached via an earlier job of this batch,
                              ///< not the shared `ResultCache`
  double solve_ms = 0.0;  ///< this job's own solve+verify wall (0 if cached)
};

/// Runs one pre-admitted job: probes `cache` (when the job carries a
/// cache key), solves and verifies otherwise, and publishes a verified
/// result back.  `stream` is only invoked when the job actually solves,
/// so a cache hit touches no device at all.  This is the allocation-free
/// per-job core of `run_admitted_jobs`, which the pipeline's scheduler
/// calls directly from its hot loop.
[[nodiscard]] AdmittedJobResult run_admitted_job(
    const AdmittedJob& job, const std::function<device::Device&()>& stream,
    serve::ResultCache* cache, const PipelineOptions& options);

/// The batch entry point shared by `MatchingPipeline`'s scheduler and the
/// serving layer's request coalescer: runs pre-admitted jobs back to back
/// on one device stream, probing `cache` before each solve and publishing
/// verified results into it.  The first job with a given (fingerprint,
/// cache_key) identity to succeed is the dedup source; in-batch
/// duplicates copy its outcome — this is what makes a coalesced batch of
/// duplicate requests cost one solve.  `stream` is only invoked when a
/// job actually solves, so a dispatch served entirely from the cache
/// touches no device at all.
[[nodiscard]] std::vector<AdmittedJobResult> run_admitted_jobs(
    const std::vector<AdmittedJob>& jobs,
    const std::function<device::Device&()>& stream,
    serve::ResultCache* cache, const PipelineOptions& options);

/// Batched matching runs: many instances × many solvers scheduled
/// concurrently over the streams of one shared device engine, with
/// per-instance init reuse, a result cache, and per-job verification.
/// This is the serving layer: admit work with `add_instance`, then execute
/// a solver set over the whole batch with `run` — any registry name or
/// tuned spec (`g-pr-shr:k=1.5`) works, including solvers registered after
/// this library was built.
///
/// Jobs are pulled from a shared worklist by `max_concurrent_jobs`
/// scheduler threads, each running on its own device stream; the report is
/// always in deterministic instance-major order regardless of how the jobs
/// interleaved, and cache hits resolve to the earliest identical job in
/// that order, so a concurrent batch reports exactly what the sequential
/// schedule would.
///
/// ```
/// MatchingPipeline pipe({.max_concurrent_jobs = 4});
/// pipe.add_instance("a", graph_a);
/// pipe.add_instance("b", graph_b);
/// PipelineReport rep = pipe.run({"g-pr-shr:k=1.5", "hk", "p-dbfs"});
/// // rep.jobs: 6 verified results; rep.totals: aggregate stats, including
/// // batch_wall_ms (caller wait) vs wall_ms (summed solver cost).
/// ```
class MatchingPipeline {
 public:
  explicit MatchingPipeline(PipelineOptions options = {});

  /// Admits a graph to the batch; builds the shared greedy init once.
  /// Returns the instance index used in `PipelineJob::instance`.
  std::size_t add_instance(std::string name, graph::BipartiteGraph graph);

  /// Admits an already-built instance (e.g. a harness's precomputed suite
  /// or another pipeline's) without redoing the init / feature work;
  /// the caller guarantees its fields are consistent with this pipeline's
  /// options.
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

  /// Same, over parsed specs.
  [[nodiscard]] PipelineReport run_specs(const std::vector<SolverSpec>& specs);

  /// Same, over caller-configured solver instances (e.g. after
  /// `set_option` tuning that the spec grammar cannot express).  Cache
  /// hits only occur between jobs of the *same* solver object, since two
  /// objects with one name may be tuned differently.
  [[nodiscard]] PipelineReport run_with(
      const std::vector<std::unique_ptr<Solver>>& solvers);

  /// Reschedule knob for sweeps: change the concurrency bound between
  /// runs without re-admitting instances.
  void set_max_concurrent_jobs(unsigned n) { options_.max_concurrent_jobs = n; }

  /// Attach (or detach, with null) a cross-batch result cache between
  /// runs — see `PipelineOptions::shared_cache`.
  void set_shared_cache(std::shared_ptr<serve::ResultCache> cache);

  /// The engine whose streams execute the batch's device jobs.
  [[nodiscard]] const std::shared_ptr<device::Engine>& engine() const {
    return engine_;
  }

  /// The pipeline's primary device stream (e.g. for one-off runs outside
  /// the batch); per-job streams share its engine, not its counters.
  [[nodiscard]] device::Device& device() { return device_; }

 private:
  struct JobSpec {
    const Solver* solver;
    std::string label;      ///< reported as PipelineJob::solver (canonical
                            ///< spec, so tuned variants are tellable apart)
    std::string cache_key;  ///< identity of the solver's configuration
    /// The cache key is a canonical spec, stable across batches and
    /// processes — only such jobs may use PipelineOptions::shared_cache.
    bool shareable = false;
  };

  [[nodiscard]] PipelineReport run_jobs(const std::vector<JobSpec>& solvers);

  PipelineOptions options_;
  std::shared_ptr<device::Engine> engine_;
  device::Device device_;
  std::vector<PipelineInstance> instances_;
};

}  // namespace bpm
