#include <gtest/gtest.h>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "matching/dulmage_mendelsohn.hpp"
#include "matching/greedy.hpp"
#include "matching/hopcroft_karp.hpp"
#include "matching/matching.hpp"
#include "matching/verify.hpp"

namespace bpm::matching {
namespace {

using graph::BipartiteGraph;
using graph::Edge;
using graph::build_from_edges;
using graph::index_t;
namespace gen = graph::gen;

Matching max_matching(const BipartiteGraph& g) {
  return hopcroft_karp(g, Matching(g));
}

/// One small instance of every generator family, deficient and perfect
/// shapes alike.
std::vector<std::pair<std::string, BipartiteGraph>> generator_families() {
  return {{"random_sq", gen::random_uniform(90, 90, 300, 1)},
          {"random_wide", gen::random_uniform(50, 120, 260, 2)},
          {"random_tall", gen::random_uniform(120, 50, 260, 3)},
          {"planted", gen::planted_perfect(80, 1.0, 4)},
          {"rmat", gen::rmat(6, 4.0, 5)},
          {"chung_lu", gen::chung_lu(110, 130, 3.0, 2.3, 6)},
          {"skewed_hubs", gen::skewed_hubs(100, 120, 4, 0.3, 2.0, 7)},
          {"road", gen::road_network(9, 9, 0.7, 8)},
          {"delaunay", gen::delaunay_mesh(8, 8, 9)},
          {"trace", gen::trace_mesh(40, 3, 0.08, 10)},
          {"copaper", gen::copaper(100, 20, 5.0, 11)},
          {"huge", gen::huge_bipartite(90, 100, 2.0, 0.2, 25, 12)},
          {"complete", gen::complete_bipartite(5, 7)},
          {"empty", gen::empty_graph(4, 6)},
          {"star", gen::star(6)},
          {"chain", gen::chain(9)}};
}

/// `m` with its first matched pair removed (unchanged if empty).
Matching minus_one(Matching m) {
  for (std::size_t u = 0; u < m.row_match.size(); ++u) {
    const index_t v = m.row_match[u];
    if (v == kUnmatched) continue;
    m.row_match[u] = kUnmatched;
    m.col_match[static_cast<std::size_t>(v)] = kUnmatched;
    break;
  }
  return m;
}

// --------------------------------------------------- Berge certificate ----

TEST(Verify, IsMaximumAgreesWithReferenceOnEveryGenerator) {
  // The alternating-reach certificate against the independent reference,
  // from maximum and non-maximum matchings alike; the coarse DM split must
  // refuse exactly the matchings the certificate rejects.
  for (const auto& [name, g] : generator_families()) {
    const index_t want = reference_maximum_cardinality(g);
    const Matching hk = max_matching(g);
    const std::vector<std::pair<std::string, Matching>> inputs{
        {"empty", Matching(g)},
        {"cheap", cheap_matching(g)},
        {"karp-sipser", karp_sipser(g)},
        {"hk", hk},
        {"hk-minus-one", minus_one(hk)}};
    for (const auto& [init, m] : inputs) {
      ASSERT_TRUE(m.is_valid(g)) << name << "/" << init;
      const bool maximum = is_maximum(g, m);
      EXPECT_EQ(maximum, m.cardinality() == want) << name << "/" << init;
      if (maximum)
        EXPECT_NO_THROW((void)dulmage_mendelsohn(g, m)) << name << "/" << init;
      else
        EXPECT_THROW((void)dulmage_mendelsohn(g, m), std::logic_error)
            << name << "/" << init;
    }
  }
}

// The heuristics return a `ValidMatching` without the proof's scan; their
// debug-build assert (run by the sanitizer build) and this check hold on
// every generator family.
TEST(Greedy, HeuristicsBuildValidMatchingsOnEveryGenerator) {
  for (const auto& [name, g] : generator_families()) {
    EXPECT_EQ(cheap_matching(g).get().first_violation(g), "") << name;
    EXPECT_EQ(karp_sipser(g).get().first_violation(g), "") << name;
  }
}

// ----------------------------------------------------- Dulmage-Mendelsohn ----

TEST(DulmageMendelsohn, PerfectMatchingIsSquareOnly) {
  const BipartiteGraph g = gen::planted_perfect(30, 1.0, 2);
  const auto dm = dulmage_mendelsohn(g, max_matching(g));
  EXPECT_TRUE(dm.is_square_only());
  EXPECT_EQ(dm.square_rows, 30);
  EXPECT_EQ(dm.square_cols, 30);
}

TEST(DulmageMendelsohn, StarSplitsIntoHorizontalBlock) {
  // One row, many columns: all-but-one column unmatched, so the row and
  // every column are reachable from unmatched columns -> horizontal.
  const BipartiteGraph g = gen::star(5);
  const auto dm = dulmage_mendelsohn(g, max_matching(g));
  EXPECT_EQ(dm.horizontal_rows, 1);
  EXPECT_EQ(dm.horizontal_cols, 5);
  EXPECT_EQ(dm.square_rows, 0);
  EXPECT_EQ(dm.vertical_rows, 0);
}

TEST(DulmageMendelsohn, TransposedStarIsVertical) {
  // Many rows, one column: unmatched rows reach everything -> vertical.
  const BipartiteGraph g = build_from_edges(
      5, 1, std::vector<Edge>{{0, 0}, {1, 0}, {2, 0}, {3, 0}, {4, 0}});
  const auto dm = dulmage_mendelsohn(g, max_matching(g));
  EXPECT_EQ(dm.vertical_rows, 5);
  EXPECT_EQ(dm.vertical_cols, 1);
  EXPECT_EQ(dm.horizontal_cols, 0);
}

TEST(DulmageMendelsohn, MixedBlocksOnComposedGraph) {
  // Disjoint union: a star (horizontal), a perfect 2x2 block (square),
  // and a transposed star (vertical).
  std::vector<Edge> edges;
  // Horizontal: row 0 with columns 0..2.
  for (index_t j = 0; j < 3; ++j) edges.push_back({0, j});
  // Square: rows 1-2 with columns 3-4 (diagonal + one off edge).
  edges.push_back({1, 3});
  edges.push_back({2, 4});
  edges.push_back({1, 4});
  // Vertical: rows 3-5 with column 5.
  for (index_t i = 3; i < 6; ++i) edges.push_back({i, 5});
  const BipartiteGraph g = build_from_edges(6, 6, edges);
  const auto dm = dulmage_mendelsohn(g, max_matching(g));
  EXPECT_EQ(dm.horizontal_rows, 1);
  EXPECT_EQ(dm.horizontal_cols, 3);
  EXPECT_EQ(dm.square_rows, 2);
  EXPECT_EQ(dm.square_cols, 2);
  EXPECT_EQ(dm.vertical_rows, 3);
  EXPECT_EQ(dm.vertical_cols, 1);
}

TEST(DulmageMendelsohn, BlockSizesAlwaysPartition) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const BipartiteGraph g = gen::chung_lu(120, 140, 2.5, 2.3, seed);
    const auto dm = dulmage_mendelsohn(g, max_matching(g));
    EXPECT_EQ(dm.horizontal_rows + dm.square_rows + dm.vertical_rows,
              g.num_rows());
    EXPECT_EQ(dm.horizontal_cols + dm.square_cols + dm.vertical_cols,
              g.num_cols());
    // Structural properties of the coarse decomposition:
    // the square block is perfectly matched.
    EXPECT_EQ(dm.square_rows, dm.square_cols);
    // horizontal has more columns than rows, vertical more rows than cols
    // (strictly, unless empty).
    if (dm.horizontal_cols > 0) EXPECT_LT(dm.horizontal_rows, dm.horizontal_cols);
    if (dm.vertical_rows > 0) EXPECT_LT(dm.vertical_cols, dm.vertical_rows);
  }
}

TEST(DulmageMendelsohn, NoEdgeCrossesFromSquareToHorizontal) {
  // Block-triangular structure: an edge from a square-block row can only
  // go to square or vertical columns... in fact for the coarse DM:
  // horizontal columns see only horizontal rows.
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const BipartiteGraph g = gen::random_uniform(80, 100, 260, seed);
    const auto dm = dulmage_mendelsohn(g, max_matching(g));
    for (index_t u = 0; u < g.num_rows(); ++u) {
      for (index_t v : g.row_neighbors(u)) {
        // A non-horizontal row adjacent to a column v means v's
        // alternating reach (if any) passes through u; if v were
        // horizontal, u would be horizontal too.
        if (dm.col_block[static_cast<std::size_t>(v)] ==
            DulmageMendelsohn::Block::kHorizontal)
          EXPECT_EQ(dm.row_block[static_cast<std::size_t>(u)],
                    DulmageMendelsohn::Block::kHorizontal)
              << "edge (" << u << "," << v << ")";
      }
    }
  }
}

TEST(DulmageMendelsohn, RejectsNonMaximumMatching) {
  // chain(2) with the "wrong" single edge leaves an augmenting path; both
  // reach sets then overlap and the decomposition must refuse.
  const BipartiteGraph g = gen::chain(2);
  Matching m(g);
  m.match(1, 0);
  EXPECT_THROW((void)dulmage_mendelsohn(g, m), std::logic_error);
}

TEST(DulmageMendelsohn, RejectsInvalidMatching) {
  const BipartiteGraph g = gen::complete_bipartite(2, 2);
  Matching bad(g);
  bad.row_match[0] = 0;  // one-sided
  EXPECT_THROW((void)dulmage_mendelsohn(g, bad), std::invalid_argument);
}

// Each entry point that takes a client's matching names why it is invalid.
TEST(DulmageMendelsohn, InvalidMatchingErrorsNameTheReason) {
  const BipartiteGraph g = gen::complete_bipartite(3, 3);
  const Matching good = max_matching(g);
  const DulmageMendelsohn dm = dulmage_mendelsohn(g, good);
  Matching bad = good;
  bad.col_match[static_cast<std::size_t>(bad.row_match[0])] = kUnmatched;
  const std::string reason = bad.first_violation(g);
  ASSERT_NE(reason, "");
  const auto error_of = [](const auto& call) -> std::string {
    try {
      call();
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "no error";
  };
  EXPECT_EQ(error_of([&] { (void)dulmage_mendelsohn(g, bad); }),
            "dulmage_mendelsohn: invalid matching: " + reason);
  EXPECT_EQ(error_of([&] { (void)fine_decomposition(g, bad, dm); }),
            "fine_decomposition: invalid matching: " + reason);
  EXPECT_EQ(error_of([&] { (void)minimum_vertex_cover(g, bad); }),
            "minimum_vertex_cover: invalid matching: " + reason);
}

// ---------------------------------------------------------- vertex cover ----

TEST(VertexCover, SizeEqualsMatchingOnManyGraphs) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const BipartiteGraph g = gen::random_uniform(70, 90, 300, seed);
    const Matching m = max_matching(g);
    const VertexCover cover = minimum_vertex_cover(g, m);
    EXPECT_EQ(cover.size(), m.cardinality()) << "seed " << seed;
  }
  for (const auto& [name, g] : generator_families()) {
    const Matching m = max_matching(g);
    const VertexCover cover = minimum_vertex_cover(g, m);
    EXPECT_EQ(cover.size(), m.cardinality()) << name;
    EXPECT_EQ(cover.size(), reference_maximum_cardinality(g)) << name;
  }
}

TEST(VertexCover, CoversEveryEdge) {
  const auto expect_covers = [](const BipartiteGraph& g,
                                const std::string& label) {
    const VertexCover cover = minimum_vertex_cover(g, max_matching(g));
    for (index_t u = 0; u < g.num_rows(); ++u)
      for (index_t v : g.row_neighbors(u))
        EXPECT_TRUE(cover.row_in_cover[static_cast<std::size_t>(u)] ||
                    cover.col_in_cover[static_cast<std::size_t>(v)])
            << "uncovered edge (" << u << "," << v << ") " << label;
    EXPECT_EQ(cover.size(), reference_maximum_cardinality(g)) << label;
  };
  for (std::uint64_t seed = 0; seed < 8; ++seed)
    expect_covers(gen::chung_lu(150, 150, 3.0, 2.4, seed),
                  "seed " + std::to_string(seed));
  for (const auto& [name, g] : generator_families()) expect_covers(g, name);
}

TEST(VertexCover, StarNeedsOnlyTheCenter) {
  const BipartiteGraph g = gen::star(7);
  const VertexCover cover = minimum_vertex_cover(g, max_matching(g));
  EXPECT_EQ(cover.size(), 1);
  EXPECT_TRUE(cover.row_in_cover[0]);
}

TEST(VertexCover, EmptyGraphNeedsNothing) {
  const BipartiteGraph g = gen::empty_graph(4, 4);
  const VertexCover cover = minimum_vertex_cover(g, Matching(g));
  EXPECT_EQ(cover.size(), 0);
}

}  // namespace
}  // namespace bpm::matching
