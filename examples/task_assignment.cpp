// Task assignment — the scheduling application from the paper's
// introduction.  A compute cluster has machines with capability tags and a
// queue of jobs, each runnable only on machines holding its tag.  Maximum
// cardinality matching assigns as many jobs as possible to distinct
// machines; the example also shows how far plain greedy assignment falls
// short of the optimum found by the selected solver — any name in the
// `SolverRegistry`, dispatched through the batched `MatchingPipeline`
// (which builds the greedy init once and verifies the result).
//
// Usage:
//   task_assignment [num_machines] [num_jobs] [seed] [solver-spec]

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "graph/builder.hpp"
#include "matching/greedy.hpp"
#include "matching/verify.hpp"
#include "util/rng.hpp"

int main(int argc, char** argv) try {
  using namespace bpm;

  const graph::index_t num_machines =
      argc > 1 ? static_cast<graph::index_t>(std::atoi(argv[1])) : 2000;
  const graph::index_t num_jobs =
      argc > 2 ? static_cast<graph::index_t>(std::atoi(argv[2])) : 2400;
  const std::uint64_t seed =
      argc > 3 ? static_cast<std::uint64_t>(std::atoll(argv[3])) : 7;
  const std::string solver_spec = argc > 4 ? argv[4] : "g-pr-shr";

  // Capabilities: a few common tags plus a long tail of rare ones —
  // queues look Zipfian in practice, which is exactly where greedy
  // assignment traps itself.
  constexpr int kTags = 24;
  Rng rng(seed);
  std::vector<std::vector<graph::index_t>> machines_with_tag(kTags);
  for (graph::index_t m = 0; m < num_machines; ++m) {
    const int ntags = 1 + static_cast<int>(rng.below(3));
    for (int t = 0; t < ntags; ++t) {
      const auto tag = static_cast<std::size_t>(
          rng.below(static_cast<std::uint64_t>(kTags)));
      machines_with_tag[tag].push_back(m);
    }
  }
  std::vector<graph::Edge> eligible;
  for (graph::index_t j = 0; j < num_jobs; ++j) {
    // Zipf-ish tag choice: tag k with weight ~ 1/(k+1).
    std::size_t tag = 0;
    double mass = rng.uniform() * 3.8;  // ~ H(24)
    while (tag + 1 < kTags && (mass -= 1.0 / static_cast<double>(tag + 1)) > 0)
      ++tag;
    for (graph::index_t m : machines_with_tag[tag])
      eligible.push_back({m, j});
  }

  const graph::BipartiteGraph g =
      graph::build_from_edges(num_machines, num_jobs, eligible);
  std::cout << "cluster: " << num_machines << " machines, " << num_jobs
            << " jobs, " << g.num_edges() << " eligible (machine, job) pairs\n";

  // One pipeline instance: the shared init is the paper's cheap greedy
  // matching (not the Karp–Sipser default), exactly the naive scheduler's
  // dispatch, and every job is verified (edge validity, and the Berge
  // certificate for exact solvers) before it is reported.
  MatchingPipeline pipeline({.init_builder = matching::cheap_matching});
  pipeline.add_instance("cluster", g);
  const PipelineInstance& inst = pipeline.instances().front();
  std::cout << "greedy dispatch assigns:   " << inst.initial_cardinality
            << " jobs\n";

  const PipelineReport report = pipeline.run({solver_spec});
  const PipelineJob& job = report.jobs.front();
  if (!job.ok) {
    std::cerr << "solver failed: " << job.error << "\n";
    return 1;
  }
  std::cout << job.solver << " assigns:      " << job.stats.cardinality
            << " jobs (" << job.stats.cardinality - inst.initial_cardinality
            << " recovered by augmentation)\n";

  // Against an independently computed maximum, not the selected solver's
  // result — a heuristic's shortfall is not proof of unassignability.
  const graph::index_t maximum =
      matching::reference_maximum_cardinality(inst.graph);
  const graph::index_t unassigned = num_jobs - maximum;
  std::cout << "provably unassignable:     " << unassigned
            << " jobs (no eligible machine remains under ANY assignment)\n";
  if (job.stats.cardinality == maximum)
    std::cout << "verified: assignment is maximum (Berge certificate and "
                 "reference cardinality)\n";
  else  // a heuristic spec (greedy, karp-sipser) was selected
    std::cout << "note: " << job.solver << " is a heuristic; the maximum is "
              << maximum << " jobs\n";
  if (!job.stats.detail.empty())
    std::cout << "solver stats: " << job.stats.detail << "\n";
  if (job.stats.device_launches > 0)
    std::cout << "device: " << job.stats.device_launches
              << " kernel launches, modeled " << job.stats.modeled_ms
              << " ms on a C2050-class GPU\n";
  return 0;
} catch (const std::exception& e) {
  // e.g. an unknown or malformed solver spec in argv[4]
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
