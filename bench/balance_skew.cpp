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

#include <cmath>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "harness_common.hpp"
#include "matching/greedy.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace bpm;
using graph::BipartiteGraph;
using graph::index_t;
namespace gen = graph::gen;

struct BenchInstance {
  std::string name;
  std::string suite;  ///< "uniform" or "skew"
  std::function<BipartiteGraph(index_t n, std::uint64_t seed)> make;
};

std::vector<BenchInstance> instance_set() {
  const auto frac = [](index_t n, double f) {
    return std::max<index_t>(1, static_cast<index_t>(f * n));
  };
  return {
      // Uniform control group: no degree skew, edge balancing must not hurt.
      {"uniform_random", "uniform",
       [](index_t n, std::uint64_t s) {
         return gen::random_uniform(n, n, 5 * static_cast<graph::offset_t>(n),
                                    s);
       }},
      {"uniform_deficient", "uniform",
       [frac](index_t n, std::uint64_t s) {
         // Same deficiency regime as the skewed instances, minus the skew —
         // separates the frontier-compaction effect from the balancing one.
         return gen::random_uniform(frac(n, 0.95), n,
                                    5 * static_cast<graph::offset_t>(n), s);
       }},
      {"planted", "uniform",
       [](index_t n, std::uint64_t s) {
         return gen::planted_perfect(n, 2.0, s);
       }},
      // Skewed group: hub columns and heavy-tailed degrees.  The hub-block
      // instances keep their hubs as a contiguous crawl-ordered id block
      // (scatter = false): a static equal-column partition hands one chunk
      // the whole block, the straggler case edge balancing removes.
      {"hub_block", "skew",
       [frac](index_t n, std::uint64_t s) {
         return gen::skewed_hubs(frac(n, 0.9), n, std::max<index_t>(8, n / 8),
                                 0.008, 3.0, s, /*scatter=*/false);
       }},
      {"hub_block_sparse", "skew",
       [frac](index_t n, std::uint64_t s) {
         return gen::skewed_hubs(frac(n, 0.88), n,
                                 std::max<index_t>(8, n / 12), 0.012, 2.5, s,
                                 /*scatter=*/false);
       }},
      {"power_law", "skew",
       [frac](index_t n, std::uint64_t s) {
         // Deficient power law: the heavy tail stays in the active set.
         return gen::chung_lu(frac(n, 0.9), n, 6.0, 2.2, s);
       }},
  };
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bpm::bench;

  // This harness sizes its synthetic instances from --n, not the Table I
  // --scale/--stride machinery, so it registers only the shared flags it
  // actually honours — an ignored flag must be an error, not a no-op.
  CliParser cli("balance_skew",
                "Edge-balanced vs vertex-parallel G-PR on uniform and "
                "degree-skewed suites (first --algo spec is the baseline)");
  cli.add_option("n", "base column count of the generated instances", "30000");
  cli.add_option("reps",
                 "timed repetitions per (instance, algo); best wall wins",
                 "3");
  cli.add_option("seed", "generator seed", "1");
  cli.add_option("threads", "worker threads (0 = hardware)", "0");
  cli.add_flag("verbose", "per-instance build info");
  cli.add_flag("csv", "emit CSV instead of aligned tables");
  cli.add_option("json",
                 "write instance x algo results (time/launches/matched) as "
                 "JSON to this path (empty = off)",
                 "");
  add_algo_flag(cli, "g-pr-shr,g-pr-wb");
  register_observability_flags(cli);
  SuiteOptions opt;
  index_t n = 0;
  int reps = 1;
  try {
    cli.parse(argc, argv);
    exit_if_list_algos(cli);
    opt.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
    opt.threads = static_cast<unsigned>(cli.get_int("threads"));
    opt.verbose = cli.get_flag("verbose");
    opt.csv = cli.get_flag("csv");
    opt.json_path = cli.get_string("json");
    opt.algos = solver_specs_from_cli(cli);
    observability_from_cli(cli, opt);
    n = static_cast<index_t>(cli.get_int("n"));
    reps = std::max(1, static_cast<int>(cli.get_int("reps")));
    if (n < 64) throw std::invalid_argument("--n must be at least 64");
    if (opt.algos.empty()) throw std::invalid_argument("--algo must be set");
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }

  const auto set = instance_set();
  std::cout << "# balance_skew — workload-balanced vs vertex-parallel G-PR\n"
            << "# instances: " << set.size() << " (n = " << n << "), seed "
            << opt.seed << ", reps " << reps << "; baseline: "
            << opt.algos.front().canonical() << '\n';

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
  for (const auto& inst : set) {
    BuiltInstance bi;
    bi.meta.name = inst.name;
    bi.g = inst.make(n, opt.seed);
    set_init(bi, matching::cheap_matching(bi.g));

    std::vector<Table::Cell> row{inst.name, inst.suite, std::string("-")};
    bool have_mm = false;
    std::vector<double> wall(solvers.size(), 0.0);
    for (std::size_t a = 0; a < solvers.size(); ++a) {
      AlgoResult best;
      for (int rep = 0; rep < reps; ++rep) {
        const AlgoResult r = run_solver(*solvers[a], dev, bi);
        all_ok &= r.ok;
        if (rep == 0 || r.seconds < best.seconds) best = r;
      }
      if (!have_mm && best.ok && solvers[a]->caps().exact) {
        row[2] = static_cast<std::int64_t>(best.cardinality);
        have_mm = true;
      }
      wall[a] = best.seconds;
      row.emplace_back(best.seconds);
      wall_series[group_of(inst.suite)][a].push_back(best.seconds);
      records.push_back(to_json_record(inst.name, inst.suite,
                                       opt.algos[a].canonical(), best,
                                       &bi.features));
    }
    for (std::size_t a = 1; a < solvers.size(); ++a)
      row.emplace_back(wall[0] / wall[a]);
    table.add_row(std::move(row));
    if (opt.verbose)
      std::cout << "  built " << inst.name << ": " << bi.g.describe() << '\n';
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
