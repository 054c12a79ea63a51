#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "matching/greedy.hpp"
#include "matching/matching.hpp"
#include "matching/verify.hpp"
#include "util/rng.hpp"

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

// The reference `first_violation` is measured against: the same checks
// in the same order, with every edge looked up by `has_edge`.
std::string reference_violation(const BipartiteGraph& g, const Matching& m) {
  using std::to_string;
  if (m.row_match.size() != static_cast<std::size_t>(g.num_rows()) ||
      m.col_match.size() != static_cast<std::size_t>(g.num_cols()))
    return "shape mismatch: " + to_string(m.row_match.size()) + "x" +
           to_string(m.col_match.size()) + " vs graph " +
           to_string(g.num_rows()) + "x" + to_string(g.num_cols());
  for (index_t u = 0; u < g.num_rows(); ++u) {
    const index_t v = m.row_match[u];
    if (v == kUnmatched) continue;
    if (v < 0 || v >= g.num_cols())
      return "row " + to_string(u) + " matched to out-of-range column " +
             to_string(v);
    if (m.col_match[v] != u)
      return "row " + to_string(u) + " claims column " + to_string(v) +
             " but column claims " + to_string(m.col_match[v]);
    if (!g.has_edge(u, v))
      return "matched pair (" + to_string(u) + ", " + to_string(v) +
             ") is not an edge";
  }
  for (index_t v = 0; v < g.num_cols(); ++v) {
    const index_t u = m.col_match[v];
    if (u == kUnmatched || u == kUnmatchable) continue;
    if (u < 0 || u >= g.num_rows())
      return "column " + to_string(v) + " matched to out-of-range row " +
             to_string(u);
    if (m.row_match[u] != v)
      return "column " + to_string(v) + " claims row " + to_string(u) +
             " but row claims " + to_string(m.row_match[u]);
  }
  return {};
}

// Rows of 0, 1, 16 and 17 entries (both sides of the scan/search cutoff),
// 120 entries, and random degrees in between.
BipartiteGraph mixed_degree_graph(std::uint64_t seed) {
  constexpr index_t kRows = 150, kCols = 160;
  const index_t pattern[] = {0, 1, 16, 17, 120};
  Rng rng(seed);
  std::vector<index_t> cols(kCols);
  std::vector<std::pair<index_t, index_t>> edges;
  for (index_t u = 0; u < kRows; ++u) {
    const index_t degree =
        u < 50 ? pattern[u % 5] : static_cast<index_t>(rng.range(2, 30));
    std::iota(cols.begin(), cols.end(), 0);
    std::shuffle(cols.begin(), cols.end(), rng);
    for (index_t k = 0; k < degree; ++k) edges.emplace_back(u, cols[k]);
  }
  return build_from_edges(kRows, kCols, edges);
}

// Frees u's and w's partners, then pairs u with w: consistent µ arrays
// (up to earlier corruptions), whether or not (u, w) is an edge.
void pair_up(const BipartiteGraph& g, Matching& m, index_t u, index_t w) {
  if (const index_t v = m.row_match[u]; v >= 0 && v < g.num_cols())
    m.col_match[v] = kUnmatched;
  if (const index_t x = m.col_match[w]; x >= 0 && x < g.num_rows())
    m.row_match[x] = kUnmatched;
  m.row_match[u] = w;
  m.col_match[w] = u;
}

// One to three random corruptions of `m`, of every kind `first_violation`
// reports, plus consistent re-pairings along real edges.
void corrupt(const BipartiteGraph& g, Matching& m, Rng& rng) {
  const auto row = [&] { return static_cast<index_t>(rng.below(g.num_rows())); };
  const auto col = [&] { return static_cast<index_t>(rng.below(g.num_cols())); };
  const int n = static_cast<int>(rng.range(1, 3));
  for (int i = 0; i < n; ++i) {
    switch (rng.below(6)) {
      case 0: m.row_match[row()] = col(); break;
      case 1: m.col_match[col()] = row(); break;
      case 2: pair_up(g, m, row(), col()); break;
      case 3: {
        const index_t u = row();
        if (const auto nbrs = g.row_neighbors(u); !nbrs.empty())
          pair_up(g, m, u, nbrs[rng.below(nbrs.size())]);
        break;
      }
      case 4:
        m.row_match[row()] = rng.chance(0.5) ? g.num_cols() + 3 : -5;
        break;
      default:
        m.col_match[col()] = rng.chance(0.5) ? g.num_rows() : -7;
        break;
    }
  }
}

TEST(Matching, FirstViolationMatchesTheHasEdgeReference) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const BipartiteGraph g = mixed_degree_graph(seed);
    const Matching valid = cheap_matching(g);
    ASSERT_EQ(reference_violation(g, valid), "");
    Rng rng(seed * 101);
    std::size_t invalid = 0;
    for (int trial = 0; trial < 1500; ++trial) {
      Matching m = valid;
      corrupt(g, m, rng);
      const std::string expected = reference_violation(g, m);
      EXPECT_EQ(m.first_violation(g), expected) << "seed " << seed;
      invalid += expected.empty() ? 0 : 1;
    }
    EXPECT_GT(invalid, 500u);
  }
}

// `audit` relative to a valid base decides exactly what `is_valid` decides,
// counts |M|, and looks up only the rows whose column changed; a base of
// the wrong shape makes every matched row count as changed.
TEST(Matching, AuditAgreesWithTheFullCheckGivenAValidBase) {
  const BipartiteGraph g = mixed_degree_graph(7);
  const Matching base = cheap_matching(g);
  const Matching wrong_shape(gen::empty_graph(2, 2));
  Rng rng(77);
  for (int trial = 0; trial < 2000; ++trial) {
    Matching m = base;
    if (trial > 0) corrupt(g, m, rng);
    const bool valid = m.is_valid(g);
    const Matching::Audit audit = m.audit(g, base);
    ASSERT_EQ(audit.valid, valid) << m.first_violation(g);
    EXPECT_EQ(m.audit(g, wrong_shape).valid, valid);
    if (!valid) continue;
    index_t changed = 0;
    for (index_t u = 0; u < g.num_rows(); ++u)
      changed += m.row_match[u] != kUnmatched &&
                 m.row_match[u] != base.row_match[u];
    EXPECT_EQ(audit.changed, changed);
    EXPECT_EQ(m.audit(g, wrong_shape).changed, m.cardinality());
  }
}

// A pair carried over from the base is taken as an edge: this is why
// `run_verified` requires a valid init.
TEST(Matching, AuditTrustsPairsCarriedOverFromTheBase) {
  const BipartiteGraph g = build_from_edges(2, 2, std::vector<Edge>{{0, 0}});
  Matching m(g);
  m.match(1, 1);  // not an edge
  EXPECT_FALSE(m.is_valid(g));
  EXPECT_TRUE(m.audit(g, m).valid);
  EXPECT_EQ(m.audit(g, m).changed, 0);
  EXPECT_FALSE(m.audit(g, Matching(g)).valid);
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

// -------------------------------------------------------- ValidMatching ----

// The proof is the only way in: no default state, and no conversion from a
// bare `Matching` without its graph.
static_assert(!std::is_default_constructible_v<ValidMatching>);
static_assert(!std::is_constructible_v<ValidMatching, Matching>);
static_assert(!std::is_constructible_v<ValidMatching, const Matching&>);
static_assert(!std::is_convertible_v<Matching, ValidMatching>);
static_assert(std::is_convertible_v<const ValidMatching&, const Matching&>);

TEST(ValidMatching, HoldsTheMatchingItProved) {
  const BipartiteGraph g = gen::random_uniform(40, 50, 160, 3);
  const Matching m = cheap_matching(g);
  const ValidMatching proven(g, m);
  EXPECT_EQ(proven.get().row_match, m.row_match);
  EXPECT_EQ(proven.get().col_match, m.col_match);
  EXPECT_EQ(proven.cardinality(), m.cardinality());
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
