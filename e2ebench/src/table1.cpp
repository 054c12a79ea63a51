// The `table1_batch` workload: the paper's own experiment through an
// in-process `MatchingPipeline`, one job at a time (the pipeline's per-job
// path, `run_admitted_job`), no shared cache.

#include <unistd.h>

#include <iostream>
#include <memory>

#include "core/pipeline.hpp"
#include "layers.hpp"
#include "workloads.hpp"

namespace e2e {

using namespace bpm;

namespace {

/// Small enough that the largest graph stays cache-sized: the heaviest
/// jobs of larger analogues are memory-bound, and their times (so p95 and
/// throughput) moved with other tenants' memory traffic.
constexpr double kTable1Scale = 0.003;
constexpr int kTable1Stride = 3;
/// Graphs generated per Table I instance, each from its own seed: the
/// slowest jobs' cost depends on the random structure of a few heavy
/// graphs, so the tail of one draw moves with the seed.
constexpr int kTable1Draws = 8;

/// Layers of the serving stack that a pipeline batch never runs; the
/// traced run reports them as 0.
const std::vector<std::pair<std::string, std::vector<std::string>>>
    kUnusedServeLayers = {
        {"us",
         {"transport.roundtrip_us.p50", "transport.overhead_us.p50",
          "proto.parse_us.p50", "session.execute_us.submit",
          "session.execute_us.wait_hit", "cache.get_us.p50",
          "cache.put_us.p50"}},
        {"ms",
         {"session.execute_ms.load", "graph.mtx_read_ms",
          "service.queue_ms.p50", "service.service_ms.p50",
          "service.dispatch_gap_ms.p50"}},
        {"count",
         {"transport.lines", "transport.errors", "service.dispatches",
          "service.coalesced", "service.fanout_hits", "service.rejected",
          "service.failed", "cache.insertions", "cache.evictions",
          "store.instances"}},
        {"bytes", {"cache.bytes"}},
        {"ratio", {"cache.hit_ratio"}},
        {"MiB", {"store.rss_mb_per_instance"}},
};

}  // namespace

Report run_table1_batch(const Config& cfg) {
  Report report;
  const double scale = cfg.tiny ? 0.002 : kTable1Scale;
  const int stride = cfg.tiny ? 9 : kTable1Stride;
  const std::vector<std::string>& specs = kTable1Specs;

  const int draws = cfg.tiny ? 1 : kTable1Draws;
  std::vector<Input> inputs;
  for (int d = 0; d < draws; ++d)
    for (const graph::Instance& meta : graph::select_instances(stride))
      inputs.push_back(make_input(
          meta, scale,
          mix_seed(cfg.seed, static_cast<std::uint64_t>(100 * d + meta.id)),
          indexed(meta.name + "#", static_cast<std::size_t>(d))));

  // The benchmark's spans and the program's own (job, solve-phase and
  // launch spans, far more numerous) go to separate tracers, so neither
  // crowds the other out of its rings.
  obs::Tracer tracer(1u << 16);
  obs::Tracer program_tracer(1u << 16);
  PipelineOptions options;
  options.device_backend = device::Backend::kHost;
  options.device_threads = cfg.threads;
  options.solver_threads = options.device_threads;
  options.max_concurrent_jobs = 1;
  options.tracer = cfg.trace ? &program_tracer : nullptr;
  std::vector<std::unique_ptr<Solver>> solvers;
  for (const std::string& spec : specs)
    solvers.push_back(SolverSpec::parse(spec).instantiate());

  // Set-up: admit every instance into the pipeline (init, fingerprint,
  // features, ground truth), then one warm-up job per instance.  Repeated;
  // the last pipeline stays for the measured phase.
  std::vector<double> setup_s;
  std::unique_ptr<MatchingPipeline> pipe;
  const auto run_job = [&](std::size_t i, std::size_t s) {
    const AdmittedJob job{&pipe->instances()[i], solvers[s].get(), {}};
    return run_admitted_job(
        job, [&]() -> device::Device& { return pipe->device(); }, nullptr,
        options);
  };
  for (unsigned rep = 0; rep < cfg.setup_reps; ++rep) {
    pipe.reset();
    std::vector<graph::BipartiteGraph> graphs;
    for (const Input& in : inputs) graphs.push_back(in.graph);
    const auto t0 = Clock::now();
    pipe = std::make_unique<MatchingPipeline>(options);
    for (std::size_t i = 0; i < inputs.size(); ++i)
      pipe->add_instance(inputs[i].name, std::move(graphs[i]));
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const AdmittedJobResult r = run_job(i, i % specs.size());
      if (!r.outcome.ok || r.outcome.stats.cardinality != inputs[i].maximum)
        throw std::runtime_error("warm-up job failed on " + inputs[i].name +
                                 ": " + r.outcome.error);
    }
    setup_s.push_back(ms_since(t0) / 1e3);
  }
  // The benchmark's own copies are not part of the process under test.
  for (Input& in : inputs) in.graph = graph::BipartiteGraph();
  reset_peak_rss();

  // Measured phase: whole passes over (instance × spec), so every run
  // weighs the mix equally.
  std::uint64_t next_id = 0;
  std::vector<Sample> latencies, traced_latencies;
  std::map<std::pair<std::size_t, std::size_t>, std::uint64_t> first_traced;
  const auto run_phase = [&](double seconds, bool traced) {
    const auto start = Clock::now();
    do {
      for (std::size_t i = 0; i < inputs.size(); ++i)
        for (std::size_t s = 0; s < specs.size(); ++s) {
          const std::uint64_t id = next_id++;
          obs::Tracer* t = traced ? &tracer : nullptr;
          if (t) first_traced.try_emplace({i, s}, id);
          ++report.attempted;
          const auto t0 = Clock::now();
          AdmittedJobResult r;
          {
            obs::Span sp = bench_span(t, "request", id);
            r = run_job(i, s);
          }
          const double ms = ms_since(t0);
          if (!r.outcome.ok || r.cached) {
            std::cerr << "failed: " << specs[s] << " on " << inputs[i].name
                      << ": " << r.outcome.error << "\n";
            ++report.failed;
            continue;
          }
          if (r.outcome.stats.cardinality != inputs[i].maximum) {
            report.wrong(specs[s] + " on " + inputs[i].name + ": cardinality " +
                         std::to_string(r.outcome.stats.cardinality) +
                         " != oracle " + std::to_string(inputs[i].maximum));
            ++report.failed;
            continue;
          }
          (traced ? traced_latencies : latencies).push_back({ms_since(start), ms});
        }
    } while (ms_since(start) < seconds * 1e3);
  };

  if (!cfg.trace) {
    run_phase(cfg.seconds, false);
  } else {
    run_phase(cfg.seconds / 2, false);
    tracer.enable();
    program_tracer.enable();
    run_phase(cfg.seconds / 2, true);
    tracer.disable();
    program_tracer.disable();
  }

  if (!cfg.trace) {
    report.metric("setup_s", median(setup_s), "s");
    request_metrics(report, latencies, inputs.size() * specs.size(),
                    report.attempted, report.failed);
    report.metric("peak_rss_mb", peak_rss_mb(::getpid()), "MiB");
    return report;
  }

  // --- traced run ------------------------------------------------------------
  for (const auto& [unit, names] : kUnusedServeLayers)
    zero_metrics(report, names, unit);
  const auto launches = static_cast<double>(pipe->device().launches());
  const double native_ms = pipe->device().native_ms();
  double edges = 0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    // Restore the graphs for the in-process probes.
    inputs[i].graph = pipe->instances()[i].graph;
    edges += static_cast<double>(inputs[i].graph.num_edges());
  }
  report.metric("engine.dispatches",
                static_cast<double>(report.attempted + inputs.size() * setup_s.size()),
                "count");
  report.metric("engine.launches", launches, "count");
  report.metric("engine.native_ms", native_ms, "ms");
  report.metric("device.launch_us", launches > 0 ? native_ms * 1e3 / launches : 0.0,
                "us");
  report.metric("graph.edges_per_request", edges / inputs.size(), "count");
  report.metric("trace.overhead_ratio",
                median_latency(latencies) > 0
                    ? median_latency(traced_latencies) / median_latency(latencies)
                    : 0.0,
                "ratio");
  pipe.reset();

  // Replay: each (instance, spec) of the first traced pass solved and
  // verified in process under that job's id; this is also the solver probe.
  std::vector<const Input*> all;
  for (const Input& in : inputs) all.push_back(&in);
  tracer.enable();
  probe_solvers(report, all, specs, cfg.threads, &tracer,
                [&](std::size_t i, std::size_t s) -> std::optional<std::uint64_t> {
                  const auto it = first_traced.find({i, s});
                  if (it == first_traced.end()) return std::nullopt;
                  return it->second;
                });
  tracer.disable();
  const SelfTimes st = self_times(tracer.events());
  self_time_metrics(report, st);
  const double solve_verify = layer_ms(st, "solve") + layer_ms(st, "verify");
  const double unattributed = median(st.unattributed_ms);
  note(std::string("check table1_batch: solve + verify self time ") +
       std::to_string(solve_verify) + " ms vs unattributed p50 " +
       std::to_string(unattributed) + " ms per job: " +
       (solve_verify >= unattributed ? "confirmed" : "NOT confirmed"));

  probe_admission(report, all);
  probe_gpr(report, all, cfg.threads);
  write_trace(cfg, tracer);
  write_trace(cfg, program_tracer, "-program");
  return report;
}

}  // namespace e2e
