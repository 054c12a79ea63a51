// Offline calibration of the adaptive-solver cost model
// (`policy::CostModel`): sweeps a solver pool over the shared policy
// suite (uniform + skew + massive — `build_policy_suite`), folds each
// best-of-reps wall time into the per-(feature bucket, spec)
// microseconds-per-edge table, and writes the model as deterministic JSON
// (`--model`).  `--emit-inc` additionally regenerates
// `src/policy/default_model.inc`, the table embedded in the library as
// `CostModel::embedded_default()` — the committed calibration every
// `auto` resolution starts from before online refinement.
//
// `--smoke` shrinks the sweep (small n, no massive group, one rep) so CI
// can exercise the whole calibrate→load→resolve path in seconds; a real
// recalibration runs the defaults on an idle machine.  Every time it folds
// is measured wall time.

#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness_common.hpp"
#include "policy/auto_solver.hpp"
#include "policy/cost_model.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace bpm;
  using namespace bpm::bench;

  CliParser cli("policy_calibrate",
                "Calibrate the policy::CostModel: solver pool x policy "
                "suite, bucketed us-per-edge");
  cli.add_option("n", "base column count of the uniform/skew instances",
                 "20000");
  cli.add_option("massive-scale",
                 "scale of the massive group (0 = skip massive)", "0.4");
  cli.add_option("structured-scale",
                 "Table I scale of the structured group (0 = skip)", "0.03");
  cli.add_option("reps",
                 "timed repetitions per (instance, spec); best wall wins",
                 "2");
  cli.add_option("seed", "generator seed", "1");
  cli.add_option("threads", "worker threads (0 = hardware)", "0");
  cli.add_option("model", "write the calibrated model JSON to this path",
                 "policy_model.json");
  cli.add_option("emit-inc",
                 "additionally regenerate the embedded default model "
                 "(src/policy/default_model.inc) at this path (empty = off)",
                 "");
  cli.add_option("json",
                 "write the raw instance x spec measurements as JSON to "
                 "this path (empty = off)",
                 "");
  cli.add_flag("smoke",
               "tiny sweep (n=2000, no massive, 1 rep) for CI path checks");
  cli.add_flag("csv", "emit CSV instead of aligned tables");
  add_algo_flag(cli, "g-pr-wb,g-pr-shr,hk,hkdw,pf,p-dbfs,seq-pr");
  register_observability_flags(cli);

  SuiteOptions opt;
  graph::index_t n = 0;
  double massive_scale = 0.0, structured_scale = 0.0;
  int reps = 1;
  std::string model_path, inc_path;
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
    inc_path = cli.get_string("emit-inc");
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

  const std::vector<PolicyInstance> suite =
      build_policy_suite(n, massive_scale, opt.seed, structured_scale);
  std::cout << "# policy_calibrate — cost-model calibration sweep\n"
            << "# instances: " << suite.size() << " (n = " << n
            << ", massive-scale " << massive_scale << ", structured-scale "
            << structured_scale << "), seed " << opt.seed
            << ", reps " << reps << '\n';

  device::Device dev({.num_threads = opt.threads});
  attach_tracer(opt, dev);
  std::vector<std::unique_ptr<Solver>> solvers;
  for (const auto& spec : opt.algos) solvers.push_back(spec.instantiate());

  std::vector<std::string> headers{"instance", "suite", "bucket"};
  for (const auto& spec : opt.algos)
    headers.push_back(spec.canonical() + " us/edge");
  Table table(std::move(headers), 4);

  policy::CostModel model;
  std::vector<JsonRecord> records;
  bool all_ok = true;
  for (const PolicyInstance& inst : suite) {
    const std::string bucket = policy::bucket_of(inst.bi.features).key();
    std::vector<Table::Cell> row{inst.bi.meta.name, inst.suite, bucket};
    for (std::size_t a = 0; a < solvers.size(); ++a) {
      AlgoResult best;
      for (int rep = 0; rep < reps; ++rep) {
        const AlgoResult r = run_solver(*solvers[a], dev, inst.bi,
                                        opt.threads);
        all_ok &= r.ok;
        if (rep == 0 || r.seconds < best.seconds) best = r;
      }
      const double us_per_edge =
          best.seconds * 1e6 /
          static_cast<double>(inst.bi.features.edges);
      model.record(bucket, opt.algos[a].canonical(), us_per_edge);
      row.emplace_back(us_per_edge);
      records.push_back(to_json_record(inst.bi.meta.name, inst.suite,
                                       opt.algos[a].canonical(), best,
                                       &inst.bi.features));
    }
    table.add_row(std::move(row));
  }
  if (opt.csv)
    std::cout << table.to_csv();
  else
    table.print(std::cout);

  model.save(model_path);
  std::cout << "# model written to " << model_path << " ("
            << model.bucket_count() << " buckets)\n";

  if (!inc_path.empty()) {
    std::ofstream inc(inc_path);
    if (!inc)
      throw std::runtime_error("cannot open " + inc_path);
    inc << "// Embedded default policy cost model — the committed offline\n"
           "// calibration `CostModel::embedded_default()` returns.\n"
           "// Regenerate with:\n"
           "//   policy_calibrate --emit-inc "
           "src/policy/default_model.inc\n"
           "// (never edit by hand; the table must stay byte-identical to\n"
           "// what CostModel::to_json emits so the round-trip test holds).\n"
           "R\"bpm_policy_model(" << model.to_json()
        << ")bpm_policy_model\"\n";
    if (!inc.good())
      throw std::runtime_error("write failed: " + inc_path);
    std::cout << "# embedded model written to " << inc_path << '\n';
  }

  // Sanity: everything the model will ever recommend came from a
  // verified run of this very sweep.
  write_json(opt.json_path, "policy_calibrate", records,
             {{"buckets", static_cast<double>(model.bucket_count())},
              {"instances", static_cast<double>(suite.size())},
              {"specs", static_cast<double>(opt.algos.size())},
              {"ok", all_ok ? 1.0 : 0.0}});
  if (!opt.json_path.empty())
    std::cout << "# json written to " << opt.json_path << '\n';
  write_observability(opt);
  return all_ok ? 0 : 1;
}
