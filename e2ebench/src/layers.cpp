#include "layers.hpp"

#include <stdexcept>

#include "core/g_gr.hpp"
#include "core/g_pr.hpp"
#include "core/pipeline.hpp"
#include "core/solver.hpp"
#include "device/device.hpp"
#include "graph/matrix_market.hpp"
#include "matching/greedy.hpp"
#include "matching/hopcroft_karp.hpp"
#include "matching/verify.hpp"
#include "policy/features.hpp"
#include "serve/proto.hpp"
#include "serve/result_cache.hpp"

namespace e2e {

using namespace bpm;

namespace {

template <typename F>
double time_ms(F&& fn) {
  const auto t0 = Clock::now();
  fn();
  return ms_since(t0);
}

}  // namespace

device::Device host_device(unsigned threads) {
  device::DeviceOptions options;
  options.backend = device::Backend::kHost;
  options.num_threads = threads;
  return device::Device(options);
}

SolveContext solve_context(device::Device& dev, unsigned threads) {
  SolveContext ctx;
  ctx.device = &dev;
  ctx.threads = threads;
  return ctx;
}

std::string indexed(std::string_view prefix, std::size_t i) {
  std::string out(prefix);
  out += std::to_string(i);
  return out;
}

const graph::Instance& table1_instance(const std::string& name) {
  for (const graph::Instance& inst : graph::paper_instances())
    if (inst.name == name) return inst;
  throw std::invalid_argument("unknown Table I instance " + name);
}

Input make_input(const graph::Instance& kind, double scale, std::uint64_t seed,
                 std::string name, std::string path) {
  Input in;
  in.name = std::move(name);
  in.graph = kind.build(scale, seed);
  in.maximum = oracle_maximum(in.graph);
  in.path = std::move(path);
  if (!in.path.empty()) graph::write_matrix_market_file(in.path, in.graph);
  return in;
}

void zero_metrics(Report& report, const std::vector<std::string>& names,
                  const std::string& unit) {
  for (const std::string& name : names) report.metric(name, 0.0, unit);
}

double median_us(int samples, int batch, const std::function<void()>& fn) {
  std::vector<double> us;
  us.reserve(static_cast<std::size_t>(samples));
  for (int s = 0; s < samples; ++s) {
    const auto t0 = Clock::now();
    for (int b = 0; b < batch; ++b) fn();
    us.push_back(ms_since(t0) * 1e3 / batch);
  }
  return median(std::move(us));
}

void probe_admission(Report& report, const std::vector<const Input*>& inputs) {
  std::vector<double> init, fingerprint, features, truth, total;
  for (const Input* in : inputs) {
    const graph::BipartiteGraph& g = in->graph;
    matching::Matching m;
    init.push_back(time_ms([&] { m = matching::cheap_matching(g); }));
    fingerprint.push_back(
        time_ms([&] { (void)graph::structural_fingerprint(g); }));
    features.push_back(time_ms(
        [&] { (void)policy::compute_features(g, m.cardinality()); }));
    graph::index_t maximum = 0;
    truth.push_back(time_ms(
        [&] { maximum = matching::hopcroft_karp(g, m).cardinality(); }));
    if (maximum != in->maximum)
      report.wrong("admission ground truth " + std::to_string(maximum) +
                   " != oracle " + std::to_string(in->maximum) + " on " +
                   in->name);
    graph::BipartiteGraph copy = g;
    total.push_back(time_ms([&] {
      (void)admit_instance(in->name, std::move(copy), PipelineOptions{});
    }));
  }
  report.metric("admit.init_ms", median(init), "ms");
  report.metric("admit.fingerprint_ms", median(fingerprint), "ms");
  report.metric("admit.features_ms", median(features), "ms");
  report.metric("admit.ground_truth_ms", median(truth), "ms");
  report.metric("admit.total_ms", median(total), "ms");
}

void probe_gpr(Report& report, const std::vector<const Input*>& inputs,
               unsigned threads) {
  device::Device dev = host_device(threads);
  double total = 0, gr = 0, push = 0, fix = 0, relabels = 0, levels = 0,
         loops = 0, ggr_ms = 0, ggr_levels = 0;
  for (const Input* in : inputs) {
    const graph::BipartiteGraph& g = in->graph;
    const matching::Matching init = matching::cheap_matching(g);
    const gpu::GprResult r = gpu::g_pr(dev, g, init);
    if (r.matching.cardinality() != in->maximum)
      report.wrong("g_pr cardinality " +
                   std::to_string(r.matching.cardinality()) + " != oracle " +
                   std::to_string(in->maximum) + " on " + in->name);
    total += r.stats.total_ms;
    gr += r.stats.gr_ms;
    push += r.stats.push_ms;
    fix += r.stats.fix_ms;
    relabels += static_cast<double>(r.stats.global_relabels);
    levels += static_cast<double>(r.stats.gr_level_kernels);
    loops += static_cast<double>(r.stats.loops);

    gpu::DeviceState st(g.num_rows(), g.num_cols());
    st.mu_row.assign_from(init.row_match);
    st.mu_col.assign_from(init.col_match);
    gpu::GrResult gr_result;
    ggr_ms += time_ms([&] { gr_result = gpu::g_gr(dev, g, st); });
    ggr_levels += static_cast<double>(gr_result.level_kernels);
  }
  const double n = static_cast<double>(std::max<std::size_t>(inputs.size(), 1));
  report.metric("gpr.total_ms", total / n, "ms");
  report.metric("gpr.gr_ms", gr / n, "ms");
  report.metric("gpr.push_ms", push / n, "ms");
  report.metric("gpr.fix_ms", fix / n, "ms");
  report.metric("gpr.gr_share", total > 0 ? gr / total : 0.0, "ratio");
  report.metric("gpr.global_relabels", relabels / n, "count");
  report.metric("gpr.gr_level_kernels", levels / n, "count");
  report.metric("gpr.loops", loops / n, "count");
  report.metric("ggr.call_ms", ggr_ms / n, "ms");
  report.metric("ggr.level_kernels", ggr_levels / n, "count");
}

void probe_solvers(
    Report& report, const std::vector<const Input*>& inputs,
    const std::vector<std::string>& specs, unsigned threads,
    obs::Tracer* tracer,
    const std::function<std::optional<std::uint64_t>(std::size_t,
                                                     std::size_t)>& replay_id) {
  device::Device dev = host_device(threads);
  const SolveContext ctx = solve_context(dev, threads);
  std::vector<double> ms(specs.size(), 0.0), iterations(specs.size(), 0.0);
  std::vector<double> is_maximum_ms, overhead_ms;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const Input& in = *inputs[i];
    const matching::Matching init = matching::cheap_matching(in.graph);
    for (std::size_t s = 0; s < specs.size(); ++s) {
      const std::unique_ptr<Solver> solver =
          SolverSpec::parse(specs[s]).instantiate();
      const std::optional<std::uint64_t> id = replay_id(i, s);
      obs::Tracer* t = id ? tracer : nullptr;
      const std::uint64_t rid = id.value_or(0);

      bool valid = false, maximum = false;
      SolveResult result;
      {
        obs::Span replay = bench_span(t, "replay", rid);
        {
          obs::Span sp = bench_span(t, "solve", rid);
          result = solver->run(ctx, in.graph, init);
        }
        obs::Span sp = bench_span(t, "verify", rid);
        valid = result.matching.is_valid(in.graph);
        is_maximum_ms.push_back(time_ms(
            [&] { maximum = matching::is_maximum(in.graph, result.matching); }));
      }
      ms[s] += result.stats.wall_ms;
      iterations[s] += static_cast<double>(result.stats.iterations);
      if (!valid || !maximum || result.stats.cardinality != in.maximum)
        report.wrong(specs[s] + " on " + in.name + ": cardinality " +
                     std::to_string(result.stats.cardinality) + ", oracle " +
                     std::to_string(in.maximum));

      double verified_ms = 0.0;
      JobOutcome outcome;
      verified_ms = time_ms([&] {
        outcome = run_verified(*solver, ctx, in.graph, init, in.maximum);
      });
      if (!outcome.ok) report.wrong("run_verified: " + outcome.error);
      overhead_ms.push_back(verified_ms - outcome.stats.wall_ms);
    }
  }
  const double n = static_cast<double>(std::max<std::size_t>(inputs.size(), 1));
  for (std::size_t s = 0; s < specs.size(); ++s) {
    const std::string name = solver_name(specs[s]);
    report.metric("solve.ms." + name, ms[s] / n, "ms");
    report.metric("solve.iterations." + name, iterations[s] / n, "count");
  }
  report.metric("verify.is_maximum_ms", mean(is_maximum_ms), "ms");
  report.metric("verify.overhead_ms", mean(overhead_ms), "ms");
}

void probe_proto(Report& report, const std::vector<std::string>& lines) {
  std::vector<double> us;
  us.reserve(lines.size());
  for (const std::string& line : lines)
    us.push_back(median_us(3, 16, [&] {
      const serve::proto::Parsed p = serve::proto::parse_command(line);
      if (!p.command) throw std::logic_error("unparsable line: " + line);
    }));
  report.metric("proto.parse_us.p50", median(std::move(us)), "us");
}

void probe_cache(Report& report, const std::vector<const Input*>& inputs,
                 const std::vector<std::string>& specs, bool hits) {
  serve::ResultCache cache;
  JobOutcome outcome;
  outcome.ok = true;
  outcome.stats.detail = "loops=0 relabels=0";
  std::vector<std::uint64_t> fingerprints;
  for (const Input* in : inputs)
    fingerprints.push_back(graph::structural_fingerprint(in->graph));
  std::vector<double> put_us, get_us;
  for (std::uint64_t fp : fingerprints)
    for (const std::string& spec : specs)
      put_us.push_back(
          median_us(1, 1, [&] { cache.put(fp, spec, outcome); }));
  for (std::uint64_t fp : fingerprints)
    for (const std::string& spec : specs) {
      const std::uint64_t key = hits ? fp : fp ^ 0x5bd1e995ull;
      get_us.push_back(median_us(5, 32, [&] {
        if (cache.get(key, spec).has_value() != hits)
          throw std::logic_error("cache probe: unexpected outcome");
      }));
    }
  report.metric("cache.get_us.p50", median(std::move(get_us)), "us");
  report.metric("cache.put_us.p50", median(std::move(put_us)), "us");
}

void probe_mtx_read(Report& report, const std::vector<const Input*>& inputs) {
  std::vector<double> ms;
  for (const Input* in : inputs)
    ms.push_back(time_ms([&] {
      if (graph::read_matrix_market_file(in->path).num_edges() !=
          in->graph.num_edges())
        throw std::logic_error("mtx read: edge count differs");
    }));
  report.metric("graph.mtx_read_ms", median(std::move(ms)), "ms");
}

}  // namespace e2e
