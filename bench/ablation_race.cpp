// Ablation: what the benign-race design buys.
//
// Part 1 — memory primitive: throughput of relaxed vs sequentially-
// consistent stores/loads in a kernel-shaped loop.  Relaxed compiles to
// plain moves; seq_cst stores need fences/locked instructions.  The gap is
// the per-access cost the paper avoids by tolerating races instead of
// ordering them.
//
// Part 2 — whole algorithm: G-PR on the concurrent device vs the
// sequential device (same kernels, no concurrency), showing how much of
// the runtime is genuinely parallel work.

#include <iostream>
#include <vector>

#include "harness_common.hpp"
#include "device/mem.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace bpm;

double time_relaxed_stores(device::Device& dev,
                           device::relaxed_vector<int32_t>& cells, int reps) {
  // One pseudo-random read + write per logical thread, kernel-shaped.
  Timer t;
  for (int r = 0; r < reps; ++r) {
    dev.launch(static_cast<std::int64_t>(cells.size()), [&](std::int64_t i) {
      const auto j = static_cast<std::size_t>(
          (i * 2654435761LL) % static_cast<std::int64_t>(cells.size()));
      (void)cells.load(j);
      cells.store(j, static_cast<int32_t>(i));
    });
  }
  return t.elapsed_s();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bpm::bench;

  CliParser cli("ablation_race",
                "Cost of ordering: relaxed vs seq_cst cells; sequential vs "
                "concurrent device");
  register_suite_flags(cli);
  cli.parse(argc, argv);
  const SuiteOptions opt = suite_options_from_cli(cli);

  std::cout << "# Ablation — benign races vs enforced ordering\n";

  // ---- Part 1: primitive cost --------------------------------------------
  {
    device::Device dev({.mode = device::ExecMode::kConcurrent,
                        .num_threads = opt.threads});
    constexpr std::size_t kCells = 1 << 20;
    constexpr int kReps = 20;

    device::relaxed_vector<int32_t> relaxed_cells(kCells, 0);
    const double relaxed_s = time_relaxed_stores(dev, relaxed_cells, kReps);

    // Direct seq_cst loop for comparison (relaxed_cell exposes both).
    std::vector<device::relaxed_cell<int32_t>> cells(kCells);
    Timer t;
    for (int r = 0; r < kReps; ++r) {
      dev.launch(static_cast<std::int64_t>(kCells), [&](std::int64_t i) {
        const auto j = static_cast<std::size_t>(
            (i * 2654435761LL) % static_cast<std::int64_t>(kCells));
        (void)cells[j].load_seq_cst();
        cells[j].store_seq_cst(static_cast<int32_t>(i));
      });
    }
    const double seq_cst_s = t.elapsed_s();

    Table table({"memory order", "time (s)", "relative"}, 3);
    table.add_row({std::string("relaxed (paper)"), relaxed_s, 1.0});
    table.add_row({std::string("seq_cst"), seq_cst_s, seq_cst_s / relaxed_s});
    table.print(std::cout);
    std::cout << '\n';
  }

  // ---- Part 2: whole-algorithm concurrency -------------------------------
  SuiteOptions small = opt;
  small.stride = std::max(small.stride, 4);  // a representative subset
  const auto suite = build_suite(small);
  print_header("G-PR on sequential vs concurrent device", small, suite.size());

  bool all_ok = true;
  std::vector<double> seq_times, conc_times;
  for (const auto& bi : suite) {
    device::Device seq_dev({.mode = device::ExecMode::kSequential});
    attach_tracer(opt, seq_dev);
    device::Device conc_dev({.mode = device::ExecMode::kConcurrent,
                             .num_threads = opt.threads});
    const AlgoResult rs = run_solver("g-pr-shr", seq_dev, bi);
    const AlgoResult rc = run_solver("g-pr-shr", conc_dev, bi);
    all_ok &= rs.ok && rc.ok;
    seq_times.push_back(rs.seconds);
    conc_times.push_back(rc.seconds);
    if (opt.verbose)
      std::cout << "  " << bi.meta.name << ": seq " << rs.seconds
                << " s, conc " << rc.seconds << " s\n";
  }
  Table table({"device", "geomean (s)"}, 4);
  table.add_row({std::string("sequential (1 worker)"),
                 geometric_mean(seq_times)});
  table.add_row({std::string("concurrent"), geometric_mean(conc_times)});
  table.print(std::cout);
  std::cout << "\nNote: both devices run identical kernels; the concurrent "
               "one additionally absorbs races.  Identical results (checked) "
               "with different schedules is the paper's core claim.\n";
  try {
    write_observability(opt);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return all_ok ? 0 : 1;
}
