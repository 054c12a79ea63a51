// Workload-balance comparison (BENCH_gpr_balance.json): vertex-parallel
// G-PR against the edge-balanced g-pr-wb on a uniform-degree suite and a
// degree-skewed suite.
//
// The skewed instances are where one logical thread per active column
// serializes the push launch on a hub column (the straggler problem of
// Hsieh et al., arXiv:2404.00270); the uniform suite is the control where
// edge balancing must stay within noise.  The first --algo spec is the
// baseline every other spec's speedup is measured against; each
// (instance, algo) pair runs --reps times and the best wall time is
// reported (the algorithms are racy, so wall time fluctuates).  Every run
// passes the pipeline's certificate (`run_verified`) before its time is
// reported; MM is the cardinality certified for the first exact --algo
// spec ("-" if none is exact).  The harness reports measured wall time:
// balancing shows only there, since the C2050 model charges no stragglers
// and charges g-pr-wb the same push work plus its scan launches.
//
// `--json <path>` records the instance x algo grid plus per-suite geomean
// wall speedup summaries — this is the artifact committed as
// BENCH_gpr_balance.json and uploaded by CI.

#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "harness_common.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace bpm;
  using namespace bpm::bench;

  CliParser cli("balance_skew",
                "Edge-balanced vs vertex-parallel G-PR on uniform and "
                "degree-skewed suites (first --algo spec is the baseline)");
  register_generated_suite_flags(
      cli, {.n = 30000, .reps = 3, .seed = 1, .algos = "g-pr-shr,g-pr-wb"});
  cli.add_flag("verbose", "per-instance build info");
  SuiteOptions opt;
  try {
    cli.parse(argc, argv);
    opt = generated_suite_options_from_cli(cli);
    opt.verbose = cli.get_flag("verbose");
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }

  const std::vector<SuiteMember> suite =
      build_generated_suite(opt.n, opt.seed, matching::cheap_matching);
  std::cout << "# balance_skew — workload-balanced vs vertex-parallel G-PR\n"
            << "# instances: " << suite.size() << " (n = " << opt.n
            << "), seed " << opt.seed << ", reps " << opt.reps
            << "; baseline: " << opt.algos.front().canonical() << '\n';

  device::Device dev({.num_threads = opt.threads});
  attach_tracer(opt, dev);
  std::vector<std::unique_ptr<Solver>> solvers;
  for (const auto& spec : opt.algos) solvers.push_back(spec.instantiate());

  std::vector<std::string> headers{"instance", "suite", "MM"};
  for (const auto& spec : opt.algos)
    headers.push_back(spec.canonical() + " wall(s)");
  for (std::size_t a = 1; a < opt.algos.size(); ++a)
    headers.push_back("speedup(" + opt.algos[a].canonical() + ")");
  Table table(std::move(headers), 4);

  // Per (suite group, algo) wall time series for the geomean summaries.
  std::vector<std::vector<std::vector<double>>> wall_series(
      2, std::vector<std::vector<double>>(solvers.size()));
  const auto group_of = [](const std::string& s) { return s == "skew" ? 1 : 0; };

  bool all_ok = true;
  std::vector<JsonRecord> records;
  for (const SuiteMember& inst : suite) {
    const BuiltInstance& bi = inst.bi;
    std::vector<Table::Cell> row{bi.meta.name, inst.suite, std::string("-")};
    bool have_mm = false;
    std::vector<double> wall(solvers.size(), 0.0);
    for (std::size_t a = 0; a < solvers.size(); ++a) {
      const AlgoResult best = run_best_of(*solvers[a], dev, bi, opt.reps);
      all_ok &= best.ok;
      if (!have_mm && best.ok && solvers[a]->caps().exact) {
        row[2] = static_cast<std::int64_t>(best.cardinality);
        have_mm = true;
      }
      wall[a] = best.seconds;
      row.emplace_back(best.seconds);
      wall_series[group_of(inst.suite)][a].push_back(best.seconds);
      records.push_back(to_json_record(bi.meta.name, inst.suite,
                                       opt.algos[a].canonical(), best,
                                       &bi.features));
    }
    for (std::size_t a = 1; a < solvers.size(); ++a)
      row.emplace_back(wall[0] / wall[a]);
    table.add_row(std::move(row));
    if (opt.verbose)
      std::cout << "  built " << bi.meta.name << ": " << bi.g.describe()
                << '\n';
  }

  if (opt.csv)
    std::cout << table.to_csv();
  else
    table.print(std::cout);

  // Geomean wall speedups of every non-baseline spec over the baseline,
  // per suite group — the numbers the acceptance story reads from
  // BENCH_gpr_balance.json.
  std::vector<std::pair<std::string, double>> summary;
  const char* group_names[2] = {"uniform", "skew"};
  std::cout << '\n';
  for (int grp = 0; grp < 2; ++grp) {
    const double base_wall = geometric_mean(wall_series[grp][0]);
    for (std::size_t a = 1; a < solvers.size(); ++a) {
      const double wall_speedup =
          base_wall / geometric_mean(wall_series[grp][a]);
      const std::string label = std::string(group_names[grp]) + ":" +
                                opt.algos[a].canonical();
      summary.emplace_back("wall_speedup:" + label, wall_speedup);
      std::cout << label << ": geomean wall speedup " << wall_speedup
                << "x\n";
    }
  }
  try {
    write_json(opt.json_path, "balance_skew", records, summary);
    write_observability(opt);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }

  std::cout << "\nExpected shape: the edge-balanced path wins "
               "on the skew suite (hub columns stop serializing their launch "
               "chunk) and stays within noise on the uniform control.\n";
  return all_ok ? 0 : 1;
}
