// Pipeline scaling: how much batch wall time does cross-job concurrency
// buy?  Runs a batch of (instance × solver) jobs through MatchingPipeline
// at increasing `max_concurrent_jobs` and reports, per concurrency level,
// the batch wall time next to the summed per-job solver time — the gap
// between the two is exactly what the concurrent scheduler recovers.  The
// report signature (instance, solver, cardinality, ok) is checked to be
// identical across all levels: scheduling must never change results or
// their order.
//
//   pipeline_scaling --scale 0.004 --algo g-pr-shr,hk,p-dbfs \
//                    --concurrency 1,2,4,8

#include <iostream>
#include <sstream>
#include <vector>

#include "core/pipeline.hpp"
#include "harness_common.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace bpm;
  using namespace bpm::bench;

  CliParser cli("pipeline_scaling",
                "batch wall time vs summed job time as max_concurrent_jobs "
                "grows");
  register_suite_flags(cli, /*default_stride=*/4,
                       /*default_algos=*/"g-pr-shr,hk,p-dbfs");
  cli.add_option("concurrency", "comma-separated max_concurrent_jobs values",
                 "1,2,4,0");
  cli.parse(argc, argv);
  const SuiteOptions opt = suite_options_from_cli(cli);

  std::vector<unsigned> levels;
  for (const std::string& tok : cli.get_string_list("concurrency"))
    levels.push_back(static_cast<unsigned>(std::stoul(tok)));

  MatchingPipeline pipe({.device_threads = opt.threads,
                         .solver_threads = opt.threads,
                         .max_concurrent_jobs = 1,
                         .tracer = opt.tracer()});
  for (const auto& meta : graph::select_instances(opt.stride))
    pipe.add_instance(meta.name, build_instance(meta, opt).g);
  print_header("Pipeline scaling — concurrent jobs on device streams", opt,
               pipe.instances().size());
  std::cout << "# jobs: " << pipe.instances().size() << " instances x "
            << opt.algos.size() << " solvers\n";

  std::vector<std::string> specs;
  for (const auto& spec : opt.algos) specs.push_back(spec.canonical());

  const auto signature = [](const PipelineReport& rep) {
    std::ostringstream os;
    for (const PipelineJob& job : rep.jobs)
      os << job.instance << ':' << job.solver << ':' << job.stats.cardinality
         << ':' << job.ok << ';';
    return os.str();
  };

  Table table({"max_concurrent_jobs", "batch_wall_ms", "sum_job_ms",
               "speedup_vs_seq", "all_ok"},
              2);
  bool all_ok = true;
  std::string reference_signature;
  double sequential_wall = 0.0;
  for (const unsigned level : levels) {
    pipe.set_max_concurrent_jobs(level);
    const PipelineReport rep = pipe.run(specs);
    all_ok &= rep.all_ok();
    const std::string sig = signature(rep);
    if (reference_signature.empty()) {
      reference_signature = sig;
      sequential_wall = rep.totals.batch_wall_ms;
    } else if (sig != reference_signature) {
      std::cerr << "REPORT MISMATCH at max_concurrent_jobs=" << level
                << ": concurrent schedule changed the report\n";
      all_ok = false;
    }
    table.add_row({static_cast<std::int64_t>(level), rep.totals.batch_wall_ms,
                   rep.totals.wall_ms,
                   sequential_wall / rep.totals.batch_wall_ms,
                   std::string(rep.all_ok() ? "yes" : "NO")});
  }

  if (opt.csv)
    std::cout << table.to_csv();
  else
    table.print(std::cout);
  std::cout << "\nExpected shape: batch_wall_ms falls below sum_job_ms once "
               "max_concurrent_jobs > 1 (jobs overlap on device streams; 0 "
               "= hardware concurrency), while the report stays identical "
               "to the sequential schedule.\n";
  try {
    write_observability(opt);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return all_ok ? 0 : 1;
}
