// Reproduces paper Figure 1: geometric-mean runtime of the three G-PR
// variants (First / NoShr / Shr) under seven global-relabeling strategies —
// (adaptive, k) for k in {0.3, 0.7, 1, 1.5, 2} and (fix, k) for k in
// {10, 50} — over the instance suite.
//
// Paper shape: the active-list variants beat G-PR-First on every strategy
// (14–84% in the paper); shrinking adds another 2–8%; adaptive beats fixed
// nearly everywhere; (adaptive, 0.7) is the winner for G-PR-Shr.  The last
// line is the verdict `shape fig1: pass|fail`: NoShr's and Shr's geomeans
// over all seven columns are below First's.  Per-column wins, Shr <= NoShr
// and the best strategy are printed but not gated (README: deviations).

#include <algorithm>
#include <iostream>
#include <vector>

#include "harness_common.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace bpm;
using namespace bpm::bench;

struct Strategy {
  std::string strategy;  ///< solver option value: "adaptive" | "fix"
  std::string k;
  std::string label;
};

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("fig1_gr_strategies",
                "Figure 1: G-PR variants x global-relabeling strategies "
                "(geometric mean runtimes)");
  register_suite_flags(cli, /*default_stride=*/2);
  cli.parse(argc, argv);
  SuiteOptions opt = suite_options_from_cli(cli);

  const std::vector<Strategy> strategies = {
      {"adaptive", "0.3", "adaptive,0.3"}, {"adaptive", "0.7", "adaptive,0.7"},
      {"adaptive", "1.0", "adaptive,1"},   {"adaptive", "1.5", "adaptive,1.5"},
      {"adaptive", "2.0", "adaptive,2"},   {"fix", "10", "fix,10"},
      {"fix", "50", "fix,50"},
  };
  // The three G-PR variants, by their registry names.
  const std::vector<std::string> variants = {"g-pr-first", "g-pr-noshr",
                                             "g-pr-shr"};

  device::Device dev({.num_threads = opt.threads});
  const auto suite = build_suite(opt, dev);
  print_header("Figure 1 — global-relabeling strategy comparison", opt,
               suite.size());
  attach_tracer(opt, dev);

  bool all_ok = true;
  std::vector<std::string> headers{"variant"};
  for (const auto& s : strategies) headers.push_back(s.label);
  Table modeled_table(headers, 4);
  Table wall_table(headers, 4);
  // Per variant, per strategy: geomean device time (modeled, or wall with
  // --no-model), what the shape verdict reads.
  std::vector<std::vector<double>> shape(variants.size());

  for (std::size_t v = 0; v < variants.size(); ++v) {
    const std::string& variant = variants[v];
    std::vector<Table::Cell> modeled_row{variant};
    std::vector<Table::Cell> wall_row{variant};
    for (const auto& s : strategies) {
      const auto solver = SolverRegistry::instance().create(variant);
      solver->set_option("strategy", s.strategy);
      solver->set_option("k", s.k);
      std::vector<double> modeled, wall, device;
      for (const auto& bi : suite) {
        const AlgoResult r = run_solver(*solver, dev, bi);
        all_ok &= r.ok;
        modeled.push_back(r.modeled_seconds);
        wall.push_back(r.seconds);
        device.push_back(device_seconds(r, opt));
        if (opt.verbose)
          std::cout << "  " << variant << " (" << s.label << ") "
                    << bi.meta.name << ": " << r.modeled_seconds
                    << " s modeled, " << r.seconds << " s wall\n";
      }
      modeled_row.push_back(geometric_mean(modeled));
      wall_row.push_back(geometric_mean(wall));
      shape[v].push_back(geometric_mean(device));
    }
    modeled_table.add_row(std::move(modeled_row));
    wall_table.add_row(std::move(wall_row));
  }

  std::cout << "\nGeometric-mean MODELED C2050 runtime in seconds (paper "
               "Figure 1 measured 0.70-1.69 s at full scale; the model "
               "charges each kernel its launch latency + counted work, so "
               "the variant/strategy economics of the paper apply):\n";
  if (opt.csv)
    std::cout << modeled_table.to_csv();
  else
    modeled_table.print(std::cout);
  std::cout << "\nHost wall time for reference (it does not express GPU "
               "dead-thread costs):\n";
  if (opt.csv)
    std::cout << wall_table.to_csv();
  else
    wall_table.print(std::cout);
  try {
    write_observability(opt);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }

  const auto& first = shape[0];
  const auto& noshr = shape[1];
  const auto& shr = shape[2];
  int noshr_wins = 0, shr_wins = 0, shr_le_noshr = 0;
  for (std::size_t c = 0; c < strategies.size(); ++c) {
    noshr_wins += noshr[c] < first[c];
    shr_wins += shr[c] < first[c];
    shr_le_noshr += shr[c] <= noshr[c];
  }
  const std::size_t best = static_cast<std::size_t>(
      std::min_element(shr.begin(), shr.end()) - shr.begin());
  const double noshr_ratio = geometric_mean(noshr) / geometric_mean(first);
  const double shr_ratio = geometric_mean(shr) / geometric_mean(first);
  const std::size_t columns = strategies.size();
  std::cout << "\nPaper: NoShr/Shr < First on every column, Shr <= NoShr, "
               "best G-PR-Shr strategy adaptive,0.7.\n"
            << "Measured: NoShr < First on " << noshr_wins << '/' << columns
            << " columns, Shr < First on " << shr_wins << '/' << columns
            << ", Shr <= NoShr on " << shr_le_noshr << '/' << columns
            << "; best G-PR-Shr strategy " << strategies[best].label << ".\n"
            << "Geomean over all columns vs First: NoShr " << noshr_ratio
            << ", Shr " << shr_ratio << ".\n"
            << "shape fig1: "
            << (noshr_ratio < 1.0 && shr_ratio < 1.0 ? "pass" : "fail")
            << '\n';
  return all_ok ? 0 : 1;
}
