#include "core/pipeline.hpp"

#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "matching/greedy.hpp"
#include "serve/result_cache.hpp"
#include "util/timer.hpp"

namespace bpm {

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
      // A hit never re-charges cost fields: the work happened in the run
      // that solved the entry.
      out.outcome.stats.wall_ms = 0.0;
      out.outcome.stats.modeled_ms = 0.0;
      out.outcome.stats.device_launches = 0;
      if (job_sp) job_sp.arg("cached", true);
      return out;
    }
  }
  Timer timer;
  const SolveContext ctx{.device = &stream(),
                         .threads = options.solver_threads,
                         .tracer = options.tracer};
  out.outcome = run_verified(*job.solver, ctx, inst.graph, inst.init,
                             /*verify=*/true);
  out.solve_ms = timer.elapsed_ms();
  if (cache && !job.cache_key.empty() && out.outcome.ok)
    cache->put(inst.fingerprint, job.cache_key, out.outcome);
  return out;
}

MatchingPipeline::MatchingPipeline(PipelineOptions options)
    : options_(std::move(options)),
      device_(std::make_shared<device::Engine>(options_.device_threads)) {}

PipelineInstance admit_instance(std::string name, graph::BipartiteGraph graph,
                                const PipelineOptions& options) {
  PipelineInstance inst;
  inst.name = std::move(name);
  inst.graph = std::move(graph);
  inst.init = !options.share_init ? matching::Matching(inst.graph)
              : options.init_builder
                  ? options.init_builder(inst.graph)
                  : matching::karp_sipser(inst.graph);
  // Proven once here: every job's certificate takes the pairs it carries
  // over from the init as edges (`run_verified`'s precondition).
  if (std::string bad = inst.init.first_violation(inst.graph); !bad.empty())
    throw std::invalid_argument("instance '" + inst.name +
                                "': invalid initial matching: " + bad);
  inst.initial_cardinality = inst.init.cardinality();
  // Full feature extraction for policy resolution — O(cols) over the CSR
  // pointers, amortised over every job this instance will serve.
  inst.features = policy::compute_features(inst.graph,
                                           inst.initial_cardinality);
  inst.degree_skew = inst.features.degree_skew;
  return inst;
}

std::size_t MatchingPipeline::add_instance(std::string name,
                                           graph::BipartiteGraph graph) {
  return add_instance(
      admit_instance(std::move(name), std::move(graph), options_));
}

std::size_t MatchingPipeline::add_instance(PipelineInstance instance) {
  if (instance.fingerprint == 0)
    instance.fingerprint = graph::structural_fingerprint(instance.graph);
  instances_.push_back(std::move(instance));
  return instances_.size() - 1;
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
  std::vector<std::string> labels;
  solvers.reserve(specs.size());
  labels.reserve(specs.size());
  for (const SolverSpec& spec : specs) {
    solvers.push_back(spec.instantiate());
    labels.push_back(spec.canonical());
  }
  const std::size_t per_instance = specs.size();
  const std::size_t num_jobs = instances_.size() * per_instance;
  auto batch_sp = obs::span(options_.tracer, "batch", "pipeline");
  if (batch_sp) {
    batch_sp.arg("instances", static_cast<std::int64_t>(instances_.size()));
    batch_sp.arg("jobs", static_cast<std::int64_t>(num_jobs));
  }

  PipelineReport report;
  report.jobs.reserve(num_jobs);
  if (options_.tracer != nullptr) device_.set_tracer(options_.tracer);
  const std::function<device::Device&()> stream =
      [this]() -> device::Device& { return device_; };
  for (std::size_t i = 0; i < instances_.size(); ++i) {
    for (std::size_t s = 0; s < per_instance; ++s) {
      AdmittedJobResult r = run_admitted_job(
          {&instances_[i], solvers[s].get(), {}}, stream, nullptr, options_);
      PipelineJob& job = report.jobs.emplace_back();
      job.instance = i;
      job.solver = labels[s];
      job.stats = std::move(r.outcome.stats);
      job.ok = r.outcome.ok;
      job.error = std::move(r.outcome.error);
      report.totals.jobs += 1;
      report.totals.failed += job.ok ? 0 : 1;
      report.totals.matched_pairs += job.stats.cardinality;
      report.totals.device_launches += job.stats.device_launches;
      report.totals.wall_ms += job.stats.wall_ms;
      report.totals.modeled_ms += job.stats.modeled_ms;
    }
  }
  return report;
}

}  // namespace bpm
