// The adaptive-policy headline (BENCH_auto_policy.json): `auto` against
// every fixed solver of the pool and against the per-instance oracle on
// the shared policy suite (uniform + skew + massive).
//
// For each instance, every fixed spec runs --reps times (best wall wins);
// the oracle is the per-instance minimum over the fixed pool — the time a
// clairvoyant dispatcher would get.  `auto` runs the same way through the
// registry's AutoSolver (its wall time INCLUDES feature extraction and
// resolution, so the comparison charges the policy its own overhead).
// The summary reports geomean(auto/oracle) — how far adaptive
// selection is from clairvoyance — and geomean(auto/fixed) per fixed spec,
// where < 1.0 means auto beats committing to that solver across the whole
// heterogeneous union.
//
// Every time is measured wall time, and the committed artifact uses the
// embedded calibrated model (same machine class).

#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "harness_common.hpp"
#include "policy/auto_solver.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace bpm;
  using namespace bpm::bench;

  CliParser cli("auto_policy",
                "policy::AutoSolver vs fixed solvers vs per-instance "
                "oracle on the shared policy suite");
  cli.add_option("n", "base column count of the uniform/skew instances",
                 "20000");
  cli.add_option("massive-scale",
                 "scale of the massive group (0 = skip massive)", "0.4");
  cli.add_option("structured-scale",
                 "Table I scale of the structured group (0 = skip)", "0.03");
  cli.add_option("reps",
                 "timed repetitions per (instance, spec); best wall wins",
                 "2");
  cli.add_option("seed",
                 "generator seed (the default differs from "
                 "policy_calibrate's, so the headline measures bucket "
                 "transfer, not memorised instances)",
                 "2");
  cli.add_option("threads", "worker threads (0 = hardware)", "0");
  cli.add_option("model",
                 "cost model JSON for auto (empty = embedded default)", "");
  cli.add_option("json",
                 "write the comparison (fixed pool + auto + summary "
                 "ratios) as JSON to this path (empty = off)",
                 "");
  cli.add_flag("smoke", "tiny sweep (n=2000, no massive, 1 rep) for CI");
  cli.add_flag("csv", "emit CSV instead of aligned tables");
  add_algo_flag(cli, "g-pr-wb,g-pr-shr,hk,hkdw,pf,p-dbfs,seq-pr");
  register_observability_flags(cli);

  SuiteOptions opt;
  graph::index_t n = 0;
  double massive_scale = 0.0, structured_scale = 0.0;
  int reps = 1;
  std::string model_path;
  policy::CostModel model = policy::CostModel::embedded_default();
  try {
    cli.parse(argc, argv);
    exit_if_list_algos(cli);
    opt.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
    opt.threads = static_cast<unsigned>(cli.get_int("threads"));
    opt.csv = cli.get_flag("csv");
    opt.json_path = cli.get_string("json");
    opt.algos = solver_specs_from_cli(cli);
    observability_from_cli(cli, opt);
    n = static_cast<graph::index_t>(cli.get_int("n"));
    massive_scale = cli.get_double("massive-scale");
    structured_scale = cli.get_double("structured-scale");
    reps = std::max(1, static_cast<int>(cli.get_int("reps")));
    model_path = cli.get_string("model");
    if (!model_path.empty()) model = policy::CostModel::load(model_path);
    if (cli.get_flag("smoke")) {
      n = 2000;
      massive_scale = 0.0;
      structured_scale = 0.0;
      reps = 1;
    }
    if (n < 64) throw std::invalid_argument("--n must be at least 64");
    if (opt.algos.empty()) throw std::invalid_argument("--algo must be set");
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }

  const policy::AutoSolver auto_solver(std::move(model));

  const std::vector<PolicyInstance> suite =
      build_policy_suite(n, massive_scale, opt.seed, structured_scale);
  std::cout << "# auto_policy — adaptive selection vs fixed pool vs oracle\n"
            << "# instances: " << suite.size() << " (n = " << n
            << ", massive-scale " << massive_scale << ", structured-scale "
            << structured_scale << "), seed " << opt.seed
            << ", reps " << reps << ", model "
            << (model_path.empty() ? "embedded" : model_path) << '\n';

  device::Device dev({.num_threads = opt.threads});
  attach_tracer(opt, dev);
  std::vector<std::unique_ptr<Solver>> solvers;
  for (const auto& spec : opt.algos) solvers.push_back(spec.instantiate());

  std::vector<std::string> headers{"instance", "suite", "oracle spec",
                                   "oracle(s)", "auto(s)", "auto/oracle"};
  for (const auto& spec : opt.algos) headers.push_back(spec.canonical());
  Table table(std::move(headers), 4);

  std::vector<double> auto_s, oracle_s;
  std::map<std::string, std::vector<double>> fixed_s;  // spec -> walls
  std::map<std::string, std::vector<double>> suite_auto, suite_oracle;
  std::vector<JsonRecord> records;
  bool all_ok = true;
  for (const PolicyInstance& inst : suite) {
    std::vector<double> wall(solvers.size(), 0.0);
    double oracle = 0.0;
    std::size_t oracle_a = 0;
    for (std::size_t a = 0; a < solvers.size(); ++a) {
      AlgoResult best;
      for (int rep = 0; rep < reps; ++rep) {
        const AlgoResult r = run_solver(*solvers[a], dev, inst.bi);
        all_ok &= r.ok;
        if (rep == 0 || r.seconds < best.seconds) best = r;
      }
      wall[a] = best.seconds;
      fixed_s[opt.algos[a].canonical()].push_back(best.seconds);
      if (a == 0 || best.seconds < oracle) {
        oracle = best.seconds;
        oracle_a = a;
      }
      records.push_back(to_json_record(inst.bi.meta.name, inst.suite,
                                       opt.algos[a].canonical(), best,
                                       &inst.bi.features));
    }
    AlgoResult auto_best;
    for (int rep = 0; rep < reps; ++rep) {
      const AlgoResult r = run_solver(auto_solver, dev, inst.bi);
      all_ok &= r.ok;
      if (rep == 0 || r.seconds < auto_best.seconds) auto_best = r;
    }
    records.push_back(to_json_record(inst.bi.meta.name, inst.suite, "auto",
                                     auto_best, &inst.bi.features));
    auto_s.push_back(auto_best.seconds);
    oracle_s.push_back(oracle);
    suite_auto[inst.suite].push_back(auto_best.seconds);
    suite_oracle[inst.suite].push_back(oracle);

    std::vector<Table::Cell> row{inst.bi.meta.name, inst.suite,
                                 opt.algos[oracle_a].canonical(), oracle,
                                 auto_best.seconds,
                                 auto_best.seconds / oracle};
    for (const double w : wall) row.emplace_back(w);
    table.add_row(std::move(row));
  }
  if (opt.csv)
    std::cout << table.to_csv();
  else
    table.print(std::cout);

  // Ratio geomeans: per-instance auto/oracle, and auto/fixed per spec —
  // the two numbers the acceptance gate reads.
  std::vector<double> vs_oracle;
  for (std::size_t i = 0; i < auto_s.size(); ++i)
    vs_oracle.push_back(auto_s[i] / oracle_s[i]);
  const double auto_vs_oracle = geometric_mean(vs_oracle);

  std::vector<std::pair<std::string, double>> summary;
  summary.emplace_back("auto_vs_oracle_geomean", auto_vs_oracle);
  for (const auto& [suite_name, autos] : suite_auto) {
    std::vector<double> ratios;
    const std::vector<double>& oracles = suite_oracle[suite_name];
    for (std::size_t i = 0; i < autos.size(); ++i)
      ratios.push_back(autos[i] / oracles[i]);
    summary.emplace_back("auto_vs_oracle_" + suite_name,
                         geometric_mean(ratios));
  }
  double worst_fixed_ratio = 0.0;
  std::string best_fixed;
  for (const auto& [spec, walls] : fixed_s) {
    std::vector<double> ratios;
    for (std::size_t i = 0; i < walls.size(); ++i)
      ratios.push_back(auto_s[i] / walls[i]);
    const double r = geometric_mean(ratios);
    summary.emplace_back("auto_vs_" + spec + "_geomean", r);
    if (best_fixed.empty() || r > worst_fixed_ratio) {
      worst_fixed_ratio = r;
      best_fixed = spec;
    }
  }
  summary.emplace_back("auto_vs_best_fixed_geomean", worst_fixed_ratio);
  summary.emplace_back("ok", all_ok ? 1.0 : 0.0);

  std::cout << "\n# auto vs oracle geomean:      " << auto_vs_oracle
            << (auto_vs_oracle <= 1.10 ? "  (within 10%)" : "  (OVER 10%)")
            << "\n# auto vs best fixed (" << best_fixed
            << "): " << worst_fixed_ratio
            << (worst_fixed_ratio < 1.0 ? "  (auto faster)"
                                        : "  (fixed faster)")
            << '\n';

  write_json(opt.json_path, "auto_policy", records, summary);
  if (!opt.json_path.empty())
    std::cout << "# json written to " << opt.json_path << '\n';
  write_observability(opt);
  return all_ok ? 0 : 1;
}
