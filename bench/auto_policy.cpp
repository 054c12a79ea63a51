// The policy harness: every --algo spec runs best of --reps on the shared
// policy suite (`build_policy_suite`: uniform + skew + structured +
// massive), and the one measured grid serves both policy experiments.
//
// Evaluation (BENCH_auto_policy.json): `auto` is an ordinary --algo entry,
// resolved through the registry against the embedded model, and its wall
// time INCLUDES feature extraction and resolution, so the comparison
// charges the policy its own overhead.  The oracle is the per-instance
// minimum over the fixed (non-`auto`) specs — the time a clairvoyant
// dispatcher would get.  The summary reports geomean(auto/oracle) — how
// far adaptive selection is from clairvoyance — and geomean(auto/fixed)
// per fixed spec, where < 1.0 means auto beats committing to that solver
// across the whole heterogeneous union.
//
// Calibration: `--emit-inc <path>` folds the fixed specs' best times into
// a `policy::CostModel` (`fold_into_model`: us per edge by feature bucket
// and canonical spec) and writes it as `src/policy/default_model.inc`,
// the table `auto` resolves against.  The committed model is calibrated at
// --seed 1 and evaluated at the default seed 2, so the headline measures
// bucket transfer, not memorised instances; rebuild between the two runs.
//
// Every time is measured wall time.

#include <algorithm>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "harness_common.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace bpm;
  using namespace bpm::bench;

  CliParser cli("auto_policy",
                "auto vs fixed solvers vs per-instance oracle on the shared "
                "policy suite; --emit-inc calibrates the cost model");
  register_generated_suite_flags(
      cli, {.n = 20000,
            .reps = 2,
            .seed = 2,
            .algos = std::string(kPolicyPool) + ",auto"});
  cli.add_option("massive-scale",
                 "scale of the massive group (0 = skip massive)", "0.4");
  cli.add_option("structured-scale",
                 "Table I scale of the structured group (0 = skip)", "0.03");
  cli.add_option("emit-inc",
                 "fold the fixed specs into a cost model and write it as "
                 "src/policy/default_model.inc to this path (empty = off)",
                 "");

  SuiteOptions opt;
  double massive_scale = 0.0, structured_scale = 0.0;
  std::string inc_path;
  try {
    cli.parse(argc, argv);
    opt = generated_suite_options_from_cli(cli);
    massive_scale = cli.get_double("massive-scale");
    structured_scale = cli.get_double("structured-scale");
    inc_path = cli.get_string("emit-inc");
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  const auto is_auto = [](const SolverSpec& spec) {
    return spec.name == "auto";
  };
  if (std::all_of(opt.algos.begin(), opt.algos.end(), is_auto)) {
    std::cerr << "error: --algo needs a spec other than auto\n";
    return 1;
  }
  const auto auto_it =
      std::find_if(opt.algos.begin(), opt.algos.end(), is_auto);
  const bool with_auto = auto_it != opt.algos.end();
  const auto auto_a = static_cast<std::size_t>(auto_it - opt.algos.begin());

  const std::vector<SuiteMember> suite =
      build_policy_suite(opt.n, massive_scale, opt.seed, structured_scale);
  std::cout << "# auto_policy — adaptive selection vs fixed pool vs oracle\n"
            << "# instances: " << suite.size() << " (n = " << opt.n
            << ", massive-scale " << massive_scale << ", structured-scale "
            << structured_scale << "), seed " << opt.seed << ", reps "
            << opt.reps << '\n';

  device::Device dev({.num_threads = opt.threads});
  attach_tracer(opt, dev);
  std::vector<std::unique_ptr<Solver>> solvers;
  for (const auto& spec : opt.algos) solvers.push_back(spec.instantiate());

  std::vector<std::string> headers{"instance", "suite", "bucket",
                                   "oracle spec", "oracle(s)"};
  if (with_auto) headers.push_back("auto/oracle");
  for (const auto& spec : opt.algos) headers.push_back(spec.canonical());
  Table table(std::move(headers), 4);

  std::vector<double> auto_s, oracle_s;
  std::map<std::string, std::vector<double>> fixed_s;  // spec -> walls
  std::map<std::string, std::vector<double>> suite_auto, suite_oracle;
  std::vector<JsonRecord> records;
  policy::CostModel model;
  bool all_ok = true;
  for (const SuiteMember& inst : suite) {
    std::vector<double> wall(solvers.size(), 0.0);
    double oracle = std::numeric_limits<double>::infinity();
    std::size_t oracle_a = 0;
    for (std::size_t a = 0; a < solvers.size(); ++a) {
      const SolverSpec& spec = opt.algos[a];
      const AlgoResult best = run_best_of(*solvers[a], dev, inst.bi, opt.reps);
      all_ok &= best.ok;
      wall[a] = best.seconds;
      records.push_back(to_json_record(inst.bi.meta.name, inst.suite,
                                       spec.canonical(), best,
                                       &inst.bi.features));
      fold_into_model(model, inst.bi, spec, best.seconds);
      if (is_auto(spec)) continue;
      fixed_s[spec.canonical()].push_back(best.seconds);
      if (best.seconds < oracle) {
        oracle = best.seconds;
        oracle_a = a;
      }
    }
    std::vector<Table::Cell> row{inst.bi.meta.name, inst.suite,
                                 policy::bucket_of(inst.bi.features).key(),
                                 opt.algos[oracle_a].canonical(), oracle};
    if (with_auto) {
      const double auto_wall = wall[auto_a];
      auto_s.push_back(auto_wall);
      oracle_s.push_back(oracle);
      suite_auto[inst.suite].push_back(auto_wall);
      suite_oracle[inst.suite].push_back(oracle);
      row.emplace_back(auto_wall / oracle);
    }
    for (const double w : wall) row.emplace_back(w);
    table.add_row(std::move(row));
  }
  if (opt.csv)
    std::cout << table.to_csv();
  else
    table.print(std::cout);

  std::vector<std::pair<std::string, double>> summary;
  if (with_auto) {
    // Ratio geomeans: per-instance auto/oracle, and auto/fixed per spec —
    // the two numbers the acceptance gate reads.
    std::vector<double> vs_oracle;
    for (std::size_t i = 0; i < auto_s.size(); ++i)
      vs_oracle.push_back(auto_s[i] / oracle_s[i]);
    const double auto_vs_oracle = geometric_mean(vs_oracle);
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
    std::cout << "\n# auto vs oracle geomean:      " << auto_vs_oracle
              << (auto_vs_oracle <= 1.10 ? "  (within 10%)" : "  (OVER 10%)")
              << "\n# auto vs best fixed (" << best_fixed
              << "): " << worst_fixed_ratio
              << (worst_fixed_ratio < 1.0 ? "  (auto faster)"
                                          : "  (fixed faster)")
              << '\n';
  }
  summary.emplace_back("ok", all_ok ? 1.0 : 0.0);

  try {
    if (!inc_path.empty()) {
      std::ofstream inc(inc_path);
      inc << model_inc(model);
      if (!inc.good()) throw std::runtime_error("cannot write " + inc_path);
      std::cout << "# embedded model written to " << inc_path << " ("
                << model.bucket_count() << " buckets)\n";
    }
    write_json(opt.json_path, "auto_policy", records, summary);
    if (!opt.json_path.empty())
      std::cout << "# json written to " << opt.json_path << '\n';
    write_observability(opt);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return all_ok ? 0 : 1;
}
