#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <utility>
#include <vector>

#include "graph/bipartite_graph.hpp"
#include "graph/builder.hpp"
#include "util/rng.hpp"

namespace bpm::graph {
namespace {

TEST(Builder, BuildsBothCsrDirections) {
  // 2 rows, 3 cols: edges (0,0) (0,2) (1,1).
  const std::vector<Edge> edges{{0, 0}, {0, 2}, {1, 1}};
  const BipartiteGraph g = build_from_edges(2, 3, edges);
  EXPECT_EQ(g.num_rows(), 2);
  EXPECT_EQ(g.num_cols(), 3);
  EXPECT_EQ(g.num_edges(), 3);

  ASSERT_EQ(g.row_neighbors(0).size(), 2u);
  EXPECT_EQ(g.row_neighbors(0)[0], 0);
  EXPECT_EQ(g.row_neighbors(0)[1], 2);
  ASSERT_EQ(g.col_neighbors(1).size(), 1u);
  EXPECT_EQ(g.col_neighbors(1)[0], 1);
  EXPECT_EQ(g.col_neighbors(2)[0], 0);
}

TEST(Builder, RemovesDuplicateEdges) {
  const std::vector<Edge> edges{{0, 0}, {0, 0}, {0, 0}, {1, 1}};
  const BipartiteGraph g = build_from_edges(2, 2, edges);
  EXPECT_EQ(g.num_edges(), 2);
}

TEST(Builder, SortsAdjacency) {
  const std::vector<Edge> edges{{0, 3}, {0, 1}, {0, 2}, {0, 0}};
  const BipartiteGraph g = build_from_edges(1, 4, edges);
  const auto nbrs = g.row_neighbors(0);
  for (std::size_t i = 1; i < nbrs.size(); ++i) EXPECT_LT(nbrs[i - 1], nbrs[i]);
}

TEST(Builder, RejectsOutOfRangeEndpoints) {
  EXPECT_THROW(build_from_edges(2, 2, std::vector<Edge>{{2, 0}}),
               std::invalid_argument);
  EXPECT_THROW(build_from_edges(2, 2, std::vector<Edge>{{0, -1}}),
               std::invalid_argument);
}

TEST(Builder, EmptyGraphIsFine) {
  const BipartiteGraph g = build_from_edges(0, 0, std::vector<Edge>{});
  EXPECT_EQ(g.num_edges(), 0);
  EXPECT_EQ(g.psi_infinity(), 0);
}

TEST(Builder, IsolatedVerticesKeepEmptyAdjacency) {
  const BipartiteGraph g = build_from_edges(3, 3, std::vector<Edge>{{1, 1}});
  EXPECT_TRUE(g.row_neighbors(0).empty());
  EXPECT_TRUE(g.row_neighbors(2).empty());
  EXPECT_EQ(g.row_neighbors(1).size(), 1u);
}

TEST(Builder, MatchesCsrDerivedFromEdgeSet) {
  // Endpoints are drawn on a `stride` lattice, so stride > 1 leaves rows
  // and columns empty in between; `hub` sends every other edge to row 0.
  // `order` rearranges the drawn list: kept as drawn, sorted by (row, col)
  // as a row-major file lists it, that with row 0 reversed, or deduped and
  // sorted by (col, row) as a column-major file lists it.
  enum class Order { kDrawn, kRowMajor, kOneRowReversed, kColumnMajor };
  const struct {
    const char* name;
    index_t rows, cols, stride;
    int edges;
    bool hub;
    std::uint64_t seed;
    Order order = Order::kDrawn;
  } cases[] = {
      {"no edges", 4, 5, 1, 0, false, 1},
      {"dense, mostly duplicates", 6, 7, 1, 400, false, 2},
      {"sparse, unsorted", 300, 200, 1, 1500, false, 3},
      {"empty rows and columns", 240, 180, 3, 900, false, 4},
      {"one hub row", 150, 400, 2, 2000, true, 5},
      {"rows already in order with adjacent duplicates", 40, 50, 1, 900,
       false, 6, Order::kRowMajor},
      {"in order except one reversed row", 200, 300, 1, 1500, true, 7,
       Order::kOneRowReversed},
      {"column-major", 200, 300, 1, 1500, true, 8, Order::kColumnMajor},
  };
  using Csr = std::pair<std::vector<offset_t>, std::vector<index_t>>;
  const auto csr_of = [](const std::set<std::pair<index_t, index_t>>& set,
                         index_t n) {
    Csr csr{std::vector<offset_t>(static_cast<std::size_t>(n) + 1, 0), {}};
    for (const auto& [src, dst] : set) {
      ++csr.first[static_cast<std::size_t>(src) + 1];
      csr.second.push_back(dst);
    }
    std::partial_sum(csr.first.begin(), csr.first.end(), csr.first.begin());
    return csr;
  };

  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    Rng rng(c.seed);
    const auto draw = [&](index_t n) {
      return c.stride * static_cast<index_t>(rng.below(
                            static_cast<std::uint64_t>(n / c.stride)));
    };
    std::vector<Edge> edges;
    std::set<std::pair<index_t, index_t>> by_row, by_col;
    for (int k = 0; k < c.edges; ++k) {
      const Edge e{c.hub && k % 2 == 0 ? 0 : draw(c.rows), draw(c.cols)};
      edges.push_back(e);
      by_row.emplace(e.row, e.col);
      by_col.emplace(e.col, e.row);
    }
    if (c.order == Order::kRowMajor || c.order == Order::kOneRowReversed)
      std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
        return std::pair(a.row, a.col) < std::pair(b.row, b.col);
      });
    if (c.order == Order::kRowMajor)
      ASSERT_NE(std::adjacent_find(edges.begin(), edges.end()), edges.end());
    if (c.order == Order::kOneRowReversed) {
      const auto hub = std::equal_range(
          edges.begin(), edges.end(), Edge{0, 0},
          [](const Edge& a, const Edge& b) { return a.row < b.row; });
      ASSERT_GT(hub.second - hub.first, 1);
      std::reverse(hub.first, hub.second);
    }
    if (c.order == Order::kColumnMajor) {
      std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
        return std::pair(a.col, a.row) < std::pair(b.col, b.row);
      });
      edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    }
    const BipartiteGraph g = build_from_edges(c.rows, c.cols, edges);
    const Csr rows = csr_of(by_row, c.rows);
    const Csr cols = csr_of(by_col, c.cols);
    EXPECT_EQ(g.row_ptr(), rows.first);
    EXPECT_EQ(g.row_adj(), rows.second);
    EXPECT_EQ(g.col_ptr(), cols.first);
    EXPECT_EQ(g.col_adj(), cols.second);
  }
}

TEST(Graph, HasEdge) {
  const BipartiteGraph g =
      build_from_edges(2, 2, std::vector<Edge>{{0, 1}, {1, 0}});
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 0));
  EXPECT_FALSE(g.has_edge(-1, 0));
  EXPECT_FALSE(g.has_edge(0, 5));
}

TEST(Graph, PsiInfinityIsMPlusN) {
  const BipartiteGraph g = build_from_edges(3, 5, std::vector<Edge>{{0, 0}});
  EXPECT_EQ(g.psi_infinity(), 8);
}

TEST(Graph, DegreeAccessors) {
  const BipartiteGraph g =
      build_from_edges(2, 2, std::vector<Edge>{{0, 0}, {0, 1}, {1, 1}});
  EXPECT_EQ(g.row_degree(0), 2);
  EXPECT_EQ(g.row_degree(1), 1);
  EXPECT_EQ(g.col_degree(0), 1);
  EXPECT_EQ(g.col_degree(1), 2);
}

TEST(Graph, ValidateRejectsInconsistentCsr) {
  // Mismatched edge counts between the two directions.
  EXPECT_THROW(BipartiteGraph(1, 1, {0, 1}, {0}, {0, 0}, {}),
               std::invalid_argument);
}

TEST(Graph, DescribeMentionsShape) {
  const BipartiteGraph g = build_from_edges(2, 3, std::vector<Edge>{{0, 0}});
  const std::string d = g.describe();
  EXPECT_NE(d.find("2 rows"), std::string::npos);
  EXPECT_NE(d.find("3 cols"), std::string::npos);
}

TEST(Permute, PreservesShapeAndDegreeMultiset) {
  const std::vector<Edge> edges{{0, 0}, {0, 1}, {1, 1}, {2, 2}, {2, 0}};
  const BipartiteGraph g = build_from_edges(3, 3, edges);
  const BipartiteGraph p = permute_vertices(g, 99);
  EXPECT_EQ(p.num_rows(), g.num_rows());
  EXPECT_EQ(p.num_cols(), g.num_cols());
  EXPECT_EQ(p.num_edges(), g.num_edges());

  auto degree_multiset = [](const BipartiteGraph& x) {
    std::vector<index_t> d;
    for (index_t u = 0; u < x.num_rows(); ++u) d.push_back(x.row_degree(u));
    std::sort(d.begin(), d.end());
    return d;
  };
  EXPECT_EQ(degree_multiset(g), degree_multiset(p));
}

TEST(Permute, DeterministicPerSeed) {
  const std::vector<Edge> edges{{0, 0}, {1, 1}, {2, 2}, {0, 2}};
  const BipartiteGraph g = build_from_edges(3, 3, edges);
  const BipartiteGraph a = permute_vertices(g, 7);
  const BipartiteGraph b = permute_vertices(g, 7);
  EXPECT_EQ(a.row_adj(), b.row_adj());
  EXPECT_EQ(a.row_ptr(), b.row_ptr());
}

}  // namespace
}  // namespace bpm::graph
