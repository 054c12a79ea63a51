// Reproduces paper Table I: for every graph — its shape (#rows, #cols,
// #edges), the initial (IM) and maximum (MM) matching cardinalities, and
// the runtimes of the selected solvers (default: G-PR, G-HKDW, P-DBFS and
// sequential PR, the paper's four) — plus the geometric means of the
// runtime columns (paper: 0.70 / 0.92 / 1.99 / 2.15 seconds).
//
// Any registry solver set works: `table1_runtimes --algo g-pr-shr,hk,pf`.
// Every result passes the pipeline's certificate (`run_verified`) before
// its time is reported; MM is the cardinality certified for the row's
// first exact solver ("-" if it ran none).  When the solver set holds the
// paper's four, the last line is the shape verdict `shape table1:
// pass|fail`: G-PR has the smallest geomean and P-DBFS and PR the largest
// two.

#include <algorithm>
#include <iostream>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "harness_common.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace bpm;
  using namespace bpm::bench;

  CliParser cli("table1_runtimes",
                "Table I: instance statistics and per-solver runtimes");
  register_suite_flags(cli, /*default_stride=*/1,
                       /*default_algos=*/"g-pr-shr,g-hkdw,p-dbfs,seq-pr",
                       /*with_json=*/true);
  SuiteOptions opt;
  try {
    cli.parse(argc, argv);
    opt = suite_options_from_cli(cli);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }

  const auto suite = build_suite(opt);
  print_header("Table I — per-graph solver runtimes", opt, suite.size());

  device::Device dev({.backend = opt.backend,
                      .mode = device::ExecMode::kConcurrent,
                      .num_threads = opt.threads});
  attach_tracer(opt, dev);
  std::vector<std::unique_ptr<Solver>> solvers;
  for (const auto& spec : opt.algos) solvers.push_back(spec.instantiate());

  bool all_ok = true;
  std::vector<std::string> headers{"id", "graph", "rows", "cols", "edges",
                                   "IM", "MM"};
  for (const auto& spec : opt.algos) headers.push_back(spec.canonical());
  Table table(std::move(headers), 3);

  std::vector<std::vector<double>> times(solvers.size());
  std::vector<JsonRecord> records;
  for (const auto& bi : suite) {
    std::vector<Table::Cell> row{
        static_cast<std::int64_t>(bi.meta.id), bi.meta.name,
        static_cast<std::int64_t>(bi.g.num_rows()),
        static_cast<std::int64_t>(bi.g.num_cols()),
        static_cast<std::int64_t>(bi.g.num_edges()),
        static_cast<std::int64_t>(bi.initial_cardinality),
        std::string("-")};
    bool have_mm = false;
    for (std::size_t i = 0; i < solvers.size(); ++i) {
      const AlgoResult r = run_solver(*solvers[i], dev, bi, opt.threads);
      all_ok &= r.ok;
      if (!have_mm && r.ok && solvers[i]->caps().exact) {
        row[6] = static_cast<std::int64_t>(r.cardinality);
        have_mm = true;
      }
      times[i].push_back(device_seconds(r, opt));
      row.push_back(times[i].back());
      records.push_back(to_json_record(bi.meta.name, to_string(bi.meta.cls),
                                       opt.algos[i].canonical(), r,
                                       opt.backend, &bi.features));
    }
    table.add_row(std::move(row));
  }
  std::vector<Table::Cell> geo{std::int64_t{0}, std::string("GEOMEAN"),
                               std::int64_t{0}, std::int64_t{0},
                               std::int64_t{0}, std::int64_t{0},
                               std::int64_t{0}};
  std::vector<double> geomeans;
  for (const auto& t : times) geomeans.push_back(geometric_mean(t));
  for (const double g : geomeans) geo.push_back(g);
  table.add_row(std::move(geo));

  if (opt.csv)
    std::cout << table.to_csv();
  else
    table.print(std::cout);

  std::vector<std::pair<std::string, double>> summary;
  for (std::size_t i = 0; i < opt.algos.size(); ++i)
    summary.emplace_back("geomean_s:" + opt.algos[i].canonical(),
                         geomeans[i]);
  try {
    write_json(opt.json_path, "table1_runtimes", records, summary);
    write_observability(opt);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }

  std::cout << "\nPaper geometric means (seconds, Tesla C2050 / 8-thread "
               "Xeon): G-PR 0.70, G-HKDW 0.92, P-DBFS 1.99, PR 2.15.\n";
  const auto geomean_of = [&](std::string_view name) -> std::optional<double> {
    for (std::size_t i = 0; i < opt.algos.size(); ++i)
      if (opt.algos[i].canonical() == name) return geomeans[i];
    return std::nullopt;
  };
  const auto gpr = geomean_of("g-pr-shr");
  const auto hkdw = geomean_of("g-hkdw");
  const auto pdbfs = geomean_of("p-dbfs");
  const auto pr = geomean_of("seq-pr");
  if (gpr && hkdw && pdbfs && pr) {
    // Among four values, "G-PR smallest and P-DBFS/PR the largest two" is
    // exactly G-PR < G-HKDW < both CPU solvers.
    const bool pass = *gpr < *hkdw && *hkdw < std::min(*pdbfs, *pr);
    std::cout << "shape table1: " << (pass ? "pass" : "fail") << '\n';
  }
  return all_ok ? 0 : 1;
}
