#include "core/pipeline.hpp"

#include <atomic>
#include <map>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <utility>

#include "matching/greedy.hpp"
#include "serve/result_cache.hpp"
#include "util/timer.hpp"

namespace bpm {

namespace {

/// Cache hits and in-batch duplicates never re-charge cost fields: the
/// work happened in the run that solved the entry.
void strip_cost_fields(SolveStats& stats) {
  stats.wall_ms = 0.0;
  stats.modeled_ms = 0.0;
  stats.device_launches = 0;
}

}  // namespace

AdmittedJobResult run_admitted_job(
    const AdmittedJob& job, const std::function<device::Device&()>& stream,
    serve::ResultCache* cache, const PipelineOptions& options) {
  AdmittedJobResult out;
  const PipelineInstance& inst = *job.instance;
  auto job_sp = obs::span(options.tracer, "job", "pipeline");
  if (job_sp) {
    job_sp.arg("instance", inst.name);
    job_sp.arg("solver", job.solver->name());
    job_sp.arg("fingerprint", static_cast<std::int64_t>(inst.fingerprint));
  }
  if (cache && !job.cache_key.empty()) {
    if (std::optional<JobOutcome> hit =
            cache->get(inst.fingerprint, job.cache_key)) {
      out.outcome = std::move(*hit);
      out.cached = true;
      strip_cost_fields(out.outcome.stats);
      if (job_sp) job_sp.arg("cached", true);
      return out;
    }
  }
  Timer timer;
  const SolveContext ctx{.device = &stream(),
                         .threads = options.solver_threads,
                         .tracer = options.tracer};
  out.outcome =
      run_verified(*job.solver, ctx, inst.graph, inst.init, options.verify);
  out.solve_ms = timer.elapsed_ms();
  // Verified results only (the shared-cache rule): a verify-off caller
  // never seeds the cache other consumers trust.
  if (cache && !job.cache_key.empty() && out.outcome.ok && options.verify)
    cache->put(inst.fingerprint, job.cache_key, out.outcome);
  return out;
}

std::vector<AdmittedJobResult> run_admitted_jobs(
    const std::vector<AdmittedJob>& jobs,
    const std::function<device::Device&()>& stream,
    serve::ResultCache* cache, const PipelineOptions& options) {
  std::vector<AdmittedJobResult> out(jobs.size());
  std::map<std::pair<std::uint64_t, std::string_view>, std::size_t> first;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const AdmittedJob& job = jobs[i];
    if (!job.cache_key.empty()) {
      const auto [it, inserted] =
          first.try_emplace({job.instance->fingerprint, job.cache_key}, i);
      if (!inserted) {
        // In-batch duplicate: the loop is sequential, so the source (an
        // earlier index) is already resolved.  Failed outcomes are never
        // dedup sources — the cache refuses to publish them and an
        // uncoalesced service would re-solve each duplicate — so the
        // duplicate solves for itself and takes over as the source.
        if (out[it->second].outcome.ok) {
          out[i] = out[it->second];
          out[i].cached = true;
          out[i].in_batch_dup = true;
          out[i].solve_ms = 0.0;
          strip_cost_fields(out[i].outcome.stats);
          continue;
        }
        it->second = i;
      }
    }
    out[i] = run_admitted_job(job, stream, cache, options);
  }
  return out;
}

std::vector<const PipelineJob*> PipelineReport::jobs_for(
    std::size_t instance) const {
  std::vector<const PipelineJob*> out;
  for (const PipelineJob& job : jobs)
    if (job.instance == instance) out.push_back(&job);
  return out;
}

MatchingPipeline::MatchingPipeline(PipelineOptions options)
    : options_(std::move(options)),
      engine_(std::make_shared<device::Engine>(
          device::EngineDescriptor{.backend = options_.device_backend,
                                   .mode = options_.device_mode,
                                   .threads = options_.device_threads})),
      device_(engine_) {}

PipelineInstance admit_instance(std::string name, graph::BipartiteGraph graph,
                                const PipelineOptions& options) {
  PipelineInstance inst;
  inst.name = std::move(name);
  inst.graph = std::move(graph);
  inst.init = !options.share_init ? matching::Matching(inst.graph)
              : options.init_builder
                  ? options.init_builder(inst.graph)
                  : matching::cheap_matching(inst.graph);
  inst.initial_cardinality = inst.init.cardinality();
  inst.fingerprint = graph::structural_fingerprint(inst.graph);
  // Full feature extraction for policy resolution — O(cols) over the CSR
  // pointers, amortised over every job this instance will serve.
  inst.features = policy::compute_features(inst.graph,
                                           inst.initial_cardinality);
  inst.degree_skew = inst.features.degree_skew;
  return inst;
}

std::size_t MatchingPipeline::add_instance(std::string name,
                                           graph::BipartiteGraph graph) {
  instances_.push_back(
      admit_instance(std::move(name), std::move(graph), options_));
  return instances_.size() - 1;
}

std::size_t MatchingPipeline::add_instance(PipelineInstance instance) {
  if (instance.fingerprint == 0)
    instance.fingerprint = graph::structural_fingerprint(instance.graph);
  instances_.push_back(std::move(instance));
  return instances_.size() - 1;
}

void MatchingPipeline::set_shared_cache(
    std::shared_ptr<serve::ResultCache> cache) {
  options_.shared_cache = std::move(cache);
}

PipelineReport MatchingPipeline::run(
    const std::vector<std::string>& solver_specs) {
  // Parse every entry up front so a typo fails the whole batch loudly
  // instead of surfacing as per-job errors after minutes of solving.
  std::vector<SolverSpec> specs;
  specs.reserve(solver_specs.size());
  for (const std::string& spec : solver_specs)
    specs.push_back(SolverSpec::parse(spec));
  return run_specs(specs);
}

PipelineReport MatchingPipeline::run_specs(
    const std::vector<SolverSpec>& specs) {
  std::vector<std::unique_ptr<Solver>> solvers;
  std::vector<JobSpec> jobs;
  solvers.reserve(specs.size());
  jobs.reserve(specs.size());
  for (const SolverSpec& spec : specs) {
    solvers.push_back(spec.instantiate());
    // The canonical spec is the configuration's identity: two spellings of
    // the same tuning share cache entries, different tunings never do.
    jobs.push_back({solvers.back().get(), spec.canonical(), spec.canonical(),
                    /*shareable=*/true});
  }
  return run_jobs(jobs);
}

PipelineReport MatchingPipeline::run_with(
    const std::vector<std::unique_ptr<Solver>>& solvers) {
  std::vector<JobSpec> jobs;
  jobs.reserve(solvers.size());
  for (std::size_t s = 0; s < solvers.size(); ++s)
    // Keyed by position: a caller-tuned solver object is only identical to
    // itself (its options are not observable through the interface), so
    // these jobs also stay out of any cross-batch shared cache.
    jobs.push_back({solvers[s].get(), solvers[s]->name(),
                    solvers[s]->name() + "#" + std::to_string(s),
                    /*shareable=*/false});
  return run_jobs(jobs);
}

PipelineReport MatchingPipeline::run_jobs(const std::vector<JobSpec>& solvers) {
  Timer batch_timer;
  const std::size_t per_instance = solvers.size();
  const std::size_t num_jobs = instances_.size() * per_instance;
  auto batch_sp = obs::span(options_.tracer, "batch", "pipeline");
  if (batch_sp) {
    batch_sp.arg("instances", static_cast<std::int64_t>(instances_.size()));
    batch_sp.arg("jobs", static_cast<std::int64_t>(num_jobs));
  }

  PipelineReport report;
  report.jobs.resize(num_jobs);

  // Deterministic cache plan: the first job in instance-major order with a
  // given (instance fingerprint, solver key) computes; later duplicates
  // copy its outcome after the fact.  Deciding this *before* execution
  // makes the report independent of how concurrent jobs interleave.
  std::vector<std::size_t> source(num_jobs);
  std::map<std::pair<std::uint64_t, std::string>, std::size_t> first_job;
  std::vector<std::size_t> worklist;
  worklist.reserve(num_jobs);
  for (std::size_t j = 0; j < num_jobs; ++j) {
    source[j] = j;
    if (options_.cache_results) {
      const auto [it, inserted] = first_job.try_emplace(
          {instances_[j / per_instance].fingerprint,
           solvers[j % per_instance].cache_key},
          j);
      if (!inserted) {
        source[j] = it->second;
        continue;
      }
    }
    worklist.push_back(j);
  }

  const auto run_one = [&](std::size_t j, device::Device& dev) {
    const PipelineInstance& inst = instances_[j / per_instance];
    const JobSpec& spec = solvers[j % per_instance];
    // Cross-batch cache: canonical-spec jobs may have been solved by an
    // earlier batch (or another pipeline/service sharing the cache).
    const bool shared =
        options_.cache_results && options_.shared_cache && spec.shareable;
    const std::function<device::Device&()> stream =
        [&dev]() -> device::Device& { return dev; };
    const AdmittedJob admitted{
        &inst, spec.solver,
        shared ? std::string_view(spec.cache_key) : std::string_view()};
    AdmittedJobResult r = run_admitted_job(
        admitted, stream, shared ? options_.shared_cache.get() : nullptr,
        options_);
    PipelineJob job;
    job.instance = j / per_instance;
    job.solver = spec.label;
    job.stats = std::move(r.outcome.stats);
    job.ok = r.outcome.ok;
    job.cached = r.cached;
    job.error = std::move(r.outcome.error);
    report.jobs[j] = std::move(job);  // each job index is written once
  };

  unsigned hardware = std::thread::hardware_concurrency();
  if (hardware == 0) hardware = 1;
  const unsigned concurrency = std::min<std::size_t>(
      options_.max_concurrent_jobs ? options_.max_concurrent_jobs : hardware,
      worklist.size());

  if (concurrency <= 1) {
    // The sequential schedule, on the pipeline's primary stream.
    if (options_.tracer != nullptr) device_.set_tracer(options_.tracer);
    for (const std::size_t j : worklist) run_one(j, device_);
  } else {
    // Work-stealing schedule: every scheduler thread owns one device
    // stream and pulls the next unclaimed job until the list is drained,
    // so uneven job costs never idle a stream behind a static partition.
    std::atomic<std::size_t> next{0};
    const auto scheduler = [&] {
      device::Device stream(engine_);
      if (options_.tracer != nullptr) stream.set_tracer(options_.tracer);
      while (true) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= worklist.size()) return;
        run_one(worklist[i], stream);
      }
    };
    std::vector<std::thread> threads;
    threads.reserve(concurrency - 1);
    for (unsigned t = 0; t + 1 < concurrency; ++t)
      threads.emplace_back(scheduler);
    scheduler();  // the calling thread schedules too
    for (std::thread& t : threads) t.join();
  }

  // Serve the planned cache hits from their sources.  Cost fields are not
  // re-charged: the work happened once.
  for (std::size_t j = 0; j < num_jobs; ++j) {
    if (source[j] == j) continue;
    PipelineJob job = report.jobs[source[j]];
    job.instance = j / per_instance;
    job.cached = true;
    job.stats.wall_ms = 0.0;
    job.stats.modeled_ms = 0.0;
    job.stats.device_launches = 0;
    report.jobs[j] = std::move(job);
  }

  for (const PipelineJob& job : report.jobs) {
    report.totals.jobs += 1;
    report.totals.failed += job.ok ? 0 : 1;
    report.totals.cache_hits += job.cached ? 1 : 0;
    report.totals.matched_pairs += job.stats.cardinality;
    report.totals.device_launches += job.stats.device_launches;
    report.totals.wall_ms += job.stats.wall_ms;
    report.totals.modeled_ms += job.stats.modeled_ms;
  }
  report.totals.batch_wall_ms = batch_timer.elapsed_ms();
  return report;
}

}  // namespace bpm
