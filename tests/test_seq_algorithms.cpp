#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/instances.hpp"
#include "matching/greedy.hpp"
#include "matching/hkdw.hpp"
#include "matching/hopcroft_karp.hpp"
#include "matching/matching.hpp"
#include "matching/pothen_fan.hpp"
#include "matching/seq_pr.hpp"
#include "matching/verify.hpp"
#include "valid_init.hpp"

namespace bpm::matching {
namespace {

using graph::BipartiteGraph;
using test_support::empty_init;
using test_support::expect_rejected;
using graph::index_t;
namespace gen = graph::gen;

// All sequential solvers share a signature for table-driven tests.
using Solver = Matching (*)(const BipartiteGraph&, const ValidMatching&);

Matching solve_pr(const BipartiteGraph& g, const ValidMatching& init) {
  return seq_push_relabel(g, init);
}
Matching solve_pr_nogap(const BipartiteGraph& g, const ValidMatching& init) {
  return seq_push_relabel(g, init, {.gap_relabeling = false});
}
Matching solve_pr_coldstart(const BipartiteGraph& g,
                            const ValidMatching& init) {
  return seq_push_relabel(g, init, {.initial_global_relabel = false});
}
Matching solve_hk(const BipartiteGraph& g, const ValidMatching& init) {
  return hopcroft_karp(g, init);
}
Matching solve_pf(const BipartiteGraph& g, const ValidMatching& init) {
  return pothen_fan(g, init);
}
Matching solve_hkdw(const BipartiteGraph& g, const ValidMatching& init) {
  return hkdw(g, init);
}

struct NamedSolver {
  const char* name;
  Solver solve;
};

class SeqSolvers : public ::testing::TestWithParam<NamedSolver> {
 protected:
  // Runs the solver from both an empty and a greedy start and checks the
  // result against the independent reference.
  void check(const BipartiteGraph& g) {
    const index_t want = reference_maximum_cardinality(g);
    for (const bool greedy_start : {false, true}) {
      const ValidMatching init = greedy_start ? cheap_matching(g) : empty_init(g);
      const Matching m = GetParam().solve(g, init);
      ASSERT_TRUE(m.is_valid(g)) << m.first_violation(g);
      EXPECT_EQ(m.cardinality(), want)
          << GetParam().name << (greedy_start ? " greedy" : " empty");
      EXPECT_TRUE(is_maximum(g, m));
    }
  }
};

TEST_P(SeqSolvers, EmptyGraph) { check(gen::empty_graph(5, 7)); }

TEST_P(SeqSolvers, SingleEdge) {
  check(graph::build_from_edges(1, 1, std::vector<graph::Edge>{{0, 0}}));
}

TEST_P(SeqSolvers, Star) { check(gen::star(8)); }

TEST_P(SeqSolvers, CompleteSquare) { check(gen::complete_bipartite(6, 6)); }

TEST_P(SeqSolvers, CompleteRectangular) {
  check(gen::complete_bipartite(3, 9));
  check(gen::complete_bipartite(9, 3));
}

TEST_P(SeqSolvers, ChainsExerciseLongAugmentingPaths) {
  check(gen::chain(1));
  check(gen::chain(2));
  check(gen::chain(17));
  check(gen::chain(128));
}

TEST_P(SeqSolvers, PlantedPerfectIsFullyMatched) {
  const BipartiteGraph g = gen::planted_perfect(64, 1.0, 5);
  const Matching m = GetParam().solve(g, empty_init(g));
  EXPECT_EQ(m.cardinality(), 64);
}

TEST_P(SeqSolvers, RandomSparse) {
  for (std::uint64_t seed = 0; seed < 6; ++seed)
    check(gen::random_uniform(60, 60, 150, seed));
}

TEST_P(SeqSolvers, RandomRectangular) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    check(gen::random_uniform(40, 90, 200, seed));
    check(gen::random_uniform(90, 40, 200, seed));
  }
}

TEST_P(SeqSolvers, PowerLawWithIsolatedVertices) {
  check(gen::chung_lu(300, 300, 3.0, 2.4, 9));
}

TEST_P(SeqSolvers, RoadLattice) { check(gen::road_network(12, 12, 0.85, 2)); }

TEST_P(SeqSolvers, TraceStrip) { check(gen::trace_mesh(64, 3, 0.05, 2)); }

TEST_P(SeqSolvers, AmazonAnalogueSeeds) {
  // Seeds on which seq-pr's gap heuristic once retired matchable columns:
  // a push that left ψ(v) unchanged recorded a false gap, and a recorded
  // gap was never rechecked after a later push refilled its label.
  const auto& all = graph::paper_instances();
  const auto amazon = std::find_if(all.begin(), all.end(), [](const auto& in) {
    return in.name == "amazon0505";
  });
  ASSERT_NE(amazon, all.end());
  for (const std::uint64_t seed : {226, 300, 323, 351, 389})
    check(amazon->build(0.005, seed));
}

INSTANTIATE_TEST_SUITE_P(
    All, SeqSolvers,
    ::testing::Values(NamedSolver{"seq_pr", solve_pr},
                      NamedSolver{"seq_pr_nogap", solve_pr_nogap},
                      NamedSolver{"seq_pr_coldstart", solve_pr_coldstart},
                      NamedSolver{"hopcroft_karp", solve_hk},
                      NamedSolver{"pothen_fan", solve_pf},
                      NamedSolver{"hkdw", solve_hkdw}),
    [](const auto& param_info) { return std::string(param_info.param.name); });

// ------------------------------------------------------ algorithm quirks ----

TEST(SeqPr, StatsAreConsistent) {
  const BipartiteGraph g = gen::random_uniform(100, 100, 400, 3);
  SeqPrStats stats;
  const Matching m = seq_push_relabel(g, empty_init(g), {}, &stats);
  EXPECT_TRUE(m.is_valid(g));
  EXPECT_GE(stats.global_relabels, 1);  // the initial one
  EXPECT_GE(stats.pushes, m.cardinality());  // each match needed >= 1 push
  EXPECT_GT(stats.scanned_edges, 0);
}

TEST(SeqPr, RejectsInvalidInitialMatching) {
  const BipartiteGraph g = gen::complete_bipartite(2, 2);
  Matching bad(g);
  bad.row_match[0] = 1;  // one-sided
  expect_rejected(g, bad);
}

TEST(SeqPr, GlobalRelabelFrequencySweepAllReachMaximum) {
  const BipartiteGraph g = gen::chung_lu(200, 200, 4.0, 2.5, 4);
  const index_t want = reference_maximum_cardinality(g);
  for (const double k : {0.05, 0.25, 0.5, 1.0, 4.0}) {
    const Matching m =
        seq_push_relabel(g, cheap_matching(g), {.global_relabel_k = k});
    EXPECT_EQ(m.cardinality(), want) << "k=" << k;
  }
}

TEST(SeqPr, GapRelabelingRetiresColumns) {
  // Power-law graphs leave unmatchable columns; the gap heuristic should
  // retire at least some of them before the scan proves it.
  const BipartiteGraph g = gen::chung_lu(400, 400, 2.5, 2.3, 8);
  SeqPrStats with_gap;
  (void)seq_push_relabel(g, cheap_matching(g), {.gap_relabeling = true},
                         &with_gap);
  SeqPrStats no_gap;
  (void)seq_push_relabel(g, cheap_matching(g), {.gap_relabeling = false},
                         &no_gap);
  EXPECT_EQ(no_gap.gap_retired, 0);
  EXPECT_GE(with_gap.gap_retired, 0);  // may be zero on easy instances
}

TEST(HopcroftKarp, PhaseCountIsLogarithmicIsh) {
  // HK guarantees O(sqrt(V)) phases; on a 256-vertex random graph the
  // count must be far below the augmenting-path count.
  const BipartiteGraph g = gen::random_uniform(256, 256, 1500, 5);
  HkStats stats;
  const Matching m = hopcroft_karp(g, Matching(g), &stats);
  EXPECT_GT(stats.augmentations, 0);
  EXPECT_LE(stats.phases, 40);
  EXPECT_EQ(m.cardinality(), reference_maximum_cardinality(g));
}

TEST(Hkdw, ExtraPassShortensPhases) {
  const BipartiteGraph g = gen::chung_lu(500, 500, 5.0, 2.5, 6);
  HkStats hk_stats;
  (void)hopcroft_karp(g, Matching(g), &hk_stats);
  HkdwStats dw_stats;
  (void)hkdw(g, empty_init(g), &dw_stats);
  EXPECT_LE(dw_stats.phases, hk_stats.phases);
  EXPECT_GT(dw_stats.dw_augmentations, 0);
}

TEST(PothenFan, LookaheadFindsDirectEndpoints) {
  PfStats stats;
  const BipartiteGraph g = gen::complete_bipartite(30, 30);
  const Matching m = pothen_fan(g, empty_init(g), &stats);
  EXPECT_EQ(m.cardinality(), 30);
  EXPECT_GE(stats.augmentations, 30);
}

}  // namespace
}  // namespace bpm::matching
