// mtx_matcher — the production command line tool: compute a maximum
// cardinality matching of a Matrix Market file (or a named synthetic
// instance) with any solver — or set of solvers — in the registry, via
// the batched matching pipeline.
//
//   mtx_matcher --algo g-pr-shr matrix.mtx
//   mtx_matcher --instance kron_g500-logn20 --scale 0.01 --algo seq-pr
//   mtx_matcher --algo g-pr-shr,hk,p-dbfs --init cheap matrix.mtx
//   mtx_matcher --algo g-pr-shr:k=1.5,g-pr-shr:k=3,greedy matrix.mtx
//
// Prints per-solver cardinality, timing and algorithm statistics, each
// job labelled by its canonical spec.  Every result is verified by
// certificate: edge-validity and a cardinality that agrees with the
// solver's stats, plus Berge's no-augmenting-path check for exact solvers.

#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "core/solver.hpp"
#include "graph/instances.hpp"
#include "graph/matrix_market.hpp"
#include "matching/greedy.hpp"
#include "util/cli.hpp"

namespace {

using namespace bpm;

graph::BipartiteGraph load_graph(const CliParser& cli) {
  const std::string instance = cli.get_string("instance");
  if (!instance.empty()) {
    for (const auto& inst : graph::paper_instances())
      if (inst.name == instance)
        return inst.build(cli.get_double("scale"),
                          static_cast<std::uint64_t>(cli.get_int("seed")));
    throw std::invalid_argument("unknown instance '" + instance +
                                "' (see graph/instances.cpp for names)");
  }
  if (cli.positional().empty())
    throw std::invalid_argument(
        "need a .mtx file or --instance <name>; try --help");
  return graph::read_matrix_market_file(cli.positional().front());
}

PipelineOptions pipeline_options(const CliParser& cli) {
  PipelineOptions opt;
  opt.device_threads = static_cast<unsigned>(cli.get_int("threads"));
  const std::string init = cli.get_string("init");
  if (init == "cheap") {
    opt.init_builder = matching::cheap_matching;
  } else if (init == "karp-sipser") {
    opt.init_builder = matching::karp_sipser;
  } else if (init == "none") {
    opt.share_init = false;
  } else {
    throw std::invalid_argument("unknown --init '" + init +
                                "' (karp-sipser | cheap | none)");
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("mtx_matcher",
                "maximum cardinality bipartite matching of a MatrixMarket "
                "file or synthetic instance");
  add_algo_flag(cli, "g-pr-shr");
  cli.add_option("init", "initial matching: karp-sipser | cheap | none",
                 "karp-sipser");
  cli.add_option("instance", "synthetic Table I instance name instead of a file",
                 "");
  cli.add_option("scale", "scale for --instance", "0.015625");
  cli.add_option("seed", "seed for --instance", "1");
  cli.add_option("threads", "engine workers; every solver (0 = hardware)", "0");
  cli.add_flag("quiet", "print only the cardinality");

  try {
    cli.parse(argc, argv);
    exit_if_list_algos(cli);
    const bool quiet = cli.get_flag("quiet");
    const std::vector<SolverSpec> specs = solver_specs_from_cli(cli);

    MatchingPipeline pipeline(pipeline_options(cli));
    const std::string name = cli.positional().empty()
                                 ? cli.get_string("instance")
                                 : cli.positional().front();
    pipeline.add_instance(name, load_graph(cli));
    const PipelineInstance& inst = pipeline.instances().front();
    if (!quiet)
      std::cout << "graph: " << inst.graph.describe() << "\n"
                << "initial matching (" << cli.get_string("init")
                << "): " << inst.initial_cardinality << "\n";

    const PipelineReport report = pipeline.run_specs(specs);

    for (const PipelineJob& job : report.jobs) {
      if (quiet) {
        std::cout << job.stats.cardinality << "\n";
        continue;
      }
      std::cout << job.solver << ": " << job.stats.cardinality << " in "
                << job.stats.wall_ms << " ms";
      if (job.stats.modeled_ms > 0.0)
        std::cout << " (modeled " << job.stats.modeled_ms
                  << " ms on a C2050-class GPU)";
      std::cout << "\n";
      if (!job.stats.detail.empty())
        std::cout << "  stats: " << job.stats.detail << "\n";
      if (!job.ok) std::cout << "  FAILED: " << job.error << "\n";
    }

    if (!report.all_ok()) {
      std::cerr << "VERIFICATION FAILED (" << report.totals.failed << " of "
                << report.totals.jobs << " jobs)\n";
      return 2;
    }
    if (!quiet) {
      // Berge's check runs for exact solvers only; a heuristic is verified
      // as a valid matching, not a maximum one.
      const bool all_exact =
          std::all_of(specs.begin(), specs.end(), [](const SolverSpec& spec) {
            return spec.instantiate()->caps().exact;
          });
      std::cout << "verified: " << report.totals.jobs << " job(s) "
                << (all_exact ? "valid and maximum (Berge certificate)"
                              : "valid; maximum checked for exact solvers "
                                "only (Berge certificate)")
                << "\n"
                << "solver time: " << report.totals.wall_ms << " ms\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
