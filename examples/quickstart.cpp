// Quickstart: build a small bipartite graph, run the GPU push-relabel
// matcher through the solver registry, and print the matching.
//
//   $ ./quickstart
//
// This walks through the full public API surface in ~60 lines:
// graph construction, greedy initialisation, registry-dispatched solving,
// and independent verification.

#include <iostream>

#include "core/solver.hpp"
#include "device/device.hpp"
#include "graph/builder.hpp"
#include "matching/greedy.hpp"
#include "matching/verify.hpp"

int main() {
  using namespace bpm;

  // A tiny assignment problem: 4 rows (say, workers) x 4 columns (tasks).
  // Task 3 is only doable by worker 0, who is also the only one for task 0
  // — so a greedy pass can trap itself and an augmenting algorithm is
  // needed to reach the maximum.
  const graph::index_t num_rows = 4, num_cols = 4;
  const std::vector<graph::Edge> edges = {
      {0, 0}, {0, 3}, {1, 0}, {1, 1}, {2, 1}, {2, 2}, {3, 2},
  };
  const graph::BipartiteGraph g = graph::build_from_edges(num_rows, num_cols, edges);
  std::cout << "graph: " << g.describe() << "\n";

  // Every matcher in this library starts from an explicit initial matching,
  // proven valid for `g` by its type; the paper uses the "cheap" greedy
  // heuristic.
  const matching::ValidMatching init = matching::cheap_matching(g);
  std::cout << "greedy initial matching: " << init.cardinality() << " pairs\n";

  // Every algorithm is a named entry in the solver registry; "g-pr-shr" is
  // G-PR with the paper's best configuration (active-list variant with
  // shrinking, (adaptive, 0.7) global relabeling).
  std::cout << "registered solvers: "
            << SolverRegistry::instance().names_csv() << "\n";

  // The device is the CUDA-style execution engine (concurrent by default);
  // the context hands it to whichever solver needs one.
  device::Device dev;
  const SolveContext ctx{.device = &dev};
  const SolveResult result = solve("g-pr-shr", ctx, g, init);

  std::cout << "maximum matching: " << result.matching.cardinality()
            << " pairs\n";
  for (graph::index_t u = 0; u < num_rows; ++u) {
    const graph::index_t v = result.matching.row_match[static_cast<std::size_t>(u)];
    if (v != matching::kUnmatched)
      std::cout << "  row " << u << "  <->  col " << v << "\n";
  }

  std::cout << "wall " << result.stats.wall_ms << " ms, modeled device "
            << result.stats.modeled_ms << " ms, "
            << result.stats.device_launches << " kernel launches ("
            << result.stats.detail << ")\n";

  // Independent certificate: no augmenting path exists (Berge's theorem).
  const bool maximum = matching::is_maximum(g, result.matching);
  std::cout << "verified maximum: " << (maximum ? "yes" : "NO") << "\n";
  return maximum ? 0 : 1;
}
