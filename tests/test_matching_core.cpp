#include <gtest/gtest.h>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "matching/greedy.hpp"
#include "matching/matching.hpp"
#include "matching/verify.hpp"

namespace bpm::matching {
namespace {

using graph::BipartiteGraph;
using graph::Edge;
using graph::build_from_edges;
namespace gen = graph::gen;

// ------------------------------------------------------------- Matching ----

TEST(Matching, EmptyMatchingHasZeroCardinality) {
  const BipartiteGraph g = gen::complete_bipartite(3, 3);
  const Matching m(g);
  EXPECT_EQ(m.cardinality(), 0);
  EXPECT_TRUE(m.is_valid(g));
}

TEST(Matching, MatchUpdatesBothSides) {
  const BipartiteGraph g = gen::complete_bipartite(3, 3);
  Matching m(g);
  m.match(0, 2);
  EXPECT_EQ(m.cardinality(), 1);
  EXPECT_EQ(m.row_match[0], 2);
  EXPECT_EQ(m.col_match[2], 0);
  EXPECT_TRUE(m.is_valid(g));
}

TEST(Matching, MatchThrowsOnBusyEndpoint) {
  const BipartiteGraph g = gen::complete_bipartite(2, 2);
  Matching m(g);
  m.match(0, 0);
  EXPECT_THROW(m.match(0, 1), std::logic_error);
  EXPECT_THROW(m.match(1, 0), std::logic_error);
}

TEST(Matching, DetectsMutualDisagreement) {
  const BipartiteGraph g = gen::complete_bipartite(2, 2);
  Matching m(g);
  m.row_match[0] = 0;  // row claims column 0 …
  // … but column 0 claims nothing.
  EXPECT_FALSE(m.is_valid(g));
  EXPECT_EQ(m.first_violation(g), "row 0 claims column 0 but column claims -1");
}

TEST(Matching, DetectsNonEdgePair) {
  const BipartiteGraph g = build_from_edges(2, 2, std::vector<Edge>{{0, 0}});
  Matching m(g);
  m.row_match[1] = 1;
  m.col_match[1] = 1;  // mutually consistent but (1,1) is not an edge
  EXPECT_FALSE(m.is_valid(g));
  EXPECT_EQ(m.first_violation(g), "matched pair (1, 1) is not an edge");
}

TEST(Matching, DetectsOutOfRangeEntries) {
  const BipartiteGraph g = gen::complete_bipartite(2, 2);
  Matching m(g);
  m.row_match[0] = 7;
  EXPECT_FALSE(m.is_valid(g));
  EXPECT_EQ(m.first_violation(g), "row 0 matched to out-of-range column 7");
  m.row_match[0] = kUnmatched;
  m.col_match[1] = -5;
  EXPECT_EQ(m.first_violation(g), "column 1 matched to out-of-range row -5");
  m.col_match[1] = 0;
  EXPECT_EQ(m.first_violation(g), "column 1 claims row 0 but row claims -1");
  m.col_match.pop_back();
  EXPECT_EQ(m.first_violation(g), "shape mismatch: 2x1 vs graph 2x2");
}

TEST(Matching, UnmatchableColumnsAreValid) {
  const BipartiteGraph g = gen::complete_bipartite(2, 2);
  Matching m(g);
  m.col_match[0] = kUnmatchable;
  EXPECT_TRUE(m.is_valid(g));
  EXPECT_EQ(m.cardinality(), 0);
}

TEST(Matching, ShapeMismatchIsInvalid) {
  const BipartiteGraph g = gen::complete_bipartite(2, 2);
  Matching m;
  EXPECT_FALSE(m.is_valid(g));
}

// --------------------------------------------------------------- verify ----

TEST(Verify, PerfectMatchingIsMaximum) {
  const BipartiteGraph g = gen::chain(4);
  Matching m(g);
  for (graph::index_t i = 0; i < 4; ++i) m.match(i, i);
  EXPECT_TRUE(is_maximum(g, m));
  EXPECT_EQ(reference_maximum_cardinality(g) - m.cardinality(), 0);
}

TEST(Verify, DetectsAugmentingPath) {
  // Chain r0-c0-r1-c1: matching {r1-c0} leaves the augmenting path
  // c1 - r1 - c0 - r0.
  const BipartiteGraph g = gen::chain(2);
  Matching m(g);
  m.match(1, 0);
  EXPECT_FALSE(is_maximum(g, m));
  EXPECT_EQ(reference_maximum_cardinality(g) - m.cardinality(), 1);
}

TEST(Verify, EmptyMatchingOnEdgelessGraphIsMaximum) {
  const BipartiteGraph g = gen::empty_graph(3, 3);
  const Matching m(g);
  EXPECT_TRUE(is_maximum(g, m));
  EXPECT_EQ(reference_maximum_cardinality(g), 0);
}

TEST(Verify, ReferenceCardinalityKnownCases) {
  EXPECT_EQ(reference_maximum_cardinality(gen::complete_bipartite(3, 5)), 3);
  EXPECT_EQ(reference_maximum_cardinality(gen::star(9)), 1);
  EXPECT_EQ(reference_maximum_cardinality(gen::chain(6)), 6);
  // Planted perfect matching: always n.
  EXPECT_EQ(reference_maximum_cardinality(gen::planted_perfect(40, 1.5, 3)),
            40);
}

TEST(Verify, ReferenceCardinalityStructuredDeficiency) {
  // Two columns share their only row: max matching 1, not 2.
  const BipartiteGraph g =
      build_from_edges(1, 2, std::vector<Edge>{{0, 0}, {0, 1}});
  EXPECT_EQ(reference_maximum_cardinality(g), 1);
}

// --------------------------------------------------------------- greedy ----

TEST(Greedy, CheapMatchingIsValidAndMaximal) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const BipartiteGraph g = gen::random_uniform(80, 80, 320, seed);
    const Matching m = cheap_matching(g);
    EXPECT_TRUE(m.is_valid(g));
    // Maximal: no edge with both endpoints free.
    for (graph::index_t u = 0; u < g.num_rows(); ++u) {
      if (m.row_match[static_cast<std::size_t>(u)] != kUnmatched) continue;
      for (graph::index_t v : g.row_neighbors(u))
        EXPECT_NE(m.col_match[static_cast<std::size_t>(v)], kUnmatched)
            << "edge (" << u << "," << v << ") has both endpoints free";
    }
  }
}

TEST(Greedy, CheapMatchingOnStarTakesOne) {
  const Matching m = cheap_matching(gen::star(5));
  EXPECT_EQ(m.cardinality(), 1);
}

TEST(Greedy, KarpSipserValidAndAtLeastCheapOnSparse) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const BipartiteGraph g = gen::road_network(20, 20, 0.8, seed);
    const Matching ks = karp_sipser(g);
    EXPECT_TRUE(ks.is_valid(g));
    const Matching cheap = cheap_matching(g);
    // Karp–Sipser's degree-1 rule never loses to blind greedy on average;
    // allow equality but catch regressions where it returns garbage.
    EXPECT_GE(ks.cardinality(), cheap.cardinality() - 2);
  }
}

TEST(Greedy, KarpSipserPendantRuleIsOptimalOnChains) {
  // On a chain, repeatedly matching degree-1 vertices yields a perfect
  // matching — plain greedy can fall one short depending on order.
  const Matching ks = karp_sipser(gen::chain(9));
  EXPECT_EQ(ks.cardinality(), 9);
}

TEST(Greedy, BothHeuristicsHandleEmptyAndEdgeless) {
  const BipartiteGraph g = gen::empty_graph(4, 4);
  EXPECT_EQ(cheap_matching(g).cardinality(), 0);
  EXPECT_EQ(karp_sipser(g).cardinality(), 0);
}

}  // namespace
}  // namespace bpm::matching
