#pragma once

#include <vector>

#include "graph/bipartite_graph.hpp"
#include "matching/matching.hpp"

namespace bpm::matching {

/// The coarse Dulmage–Mendelsohn decomposition — the sparse-direct-solver
/// application the paper's introduction cites ("employed routinely in
/// sparse linear solvers to see if the associated coefficient matrix is
/// reducible; if so, substantial savings … can be achieved").
///
/// Given a maximum matching M of the bipartite row–column graph of a
/// matrix, every vertex falls into exactly one of three blocks:
///
///  * HORIZONTAL (underdetermined): vertices reachable from some
///    *unmatched column* by an M-alternating path;
///  * VERTICAL (overdetermined): vertices reachable from some *unmatched
///    row* by an M-alternating path;
///  * SQUARE (well-determined): everything else — this block carries a
///    perfect matching.
///
/// Both reachable sets come from `alternating_reach`.  They are disjoint
/// when M is maximum (an alternating path from an unmatched column to an
/// unmatched row would be augmenting, contradicting maximality); permuting
/// rows and columns by block yields the block-triangular form that solvers
/// exploit.
struct DulmageMendelsohn {
  enum class Block { kHorizontal, kSquare, kVertical };

  std::vector<Block> row_block;
  std::vector<Block> col_block;

  // Block sizes, for convenience.
  graph::index_t horizontal_rows = 0, horizontal_cols = 0;
  graph::index_t square_rows = 0, square_cols = 0;
  graph::index_t vertical_rows = 0, vertical_cols = 0;

  /// True iff the whole matrix is one square block with a perfect
  /// matching (structurally nonsingular and not decomposable by the
  /// coarse DM split).
  [[nodiscard]] bool is_square_only() const {
    return horizontal_rows == 0 && horizontal_cols == 0 &&
           vertical_rows == 0 && vertical_cols == 0;
  }
};

/// Computes the coarse decomposition from a *maximum* matching.
/// Throws `std::invalid_argument` if `m` is invalid, and
/// `std::logic_error` if it is not maximum: the reach from the unmatched
/// columns then touches an unmatched row, the same test as `is_maximum`.
[[nodiscard]] DulmageMendelsohn dulmage_mendelsohn(const BipartiteGraph& g,
                                                   const Matching& m);

/// Minimum vertex cover by König's theorem, certified by the matching:
/// |cover| == |M| when M is maximum.  The cover consists of the rows that
/// ARE reachable from unmatched columns by alternating paths
/// (`alternating_reach` from the columns), plus the (matched) columns that
/// are NOT.
struct VertexCover {
  std::vector<char> row_in_cover;
  std::vector<char> col_in_cover;

  [[nodiscard]] graph::index_t size() const {
    graph::index_t s = 0;
    for (char c : row_in_cover) s += c;
    for (char c : col_in_cover) s += c;
    return s;
  }
};

[[nodiscard]] VertexCover minimum_vertex_cover(const BipartiteGraph& g,
                                               const Matching& m);

/// The fine Dulmage–Mendelsohn stage: the square (well-determined) block
/// decomposes further into strongly connected components of the digraph
/// whose vertices are the matched (row, column) pairs, with an arc
/// j → k whenever the matrix has a structural entry (row of pair j,
/// column of pair k).  The SCCs are the diagonal blocks of the
/// block-triangular form (BTF) sparse direct solvers factorise
/// independently — this is precisely what the paper's introduction means
/// by checking whether "the associated coefficient matrix is reducible;
/// if so, substantial savings in computational requirements can be
/// achieved".
struct FineDecomposition {
  /// Diagonal-block id per matched pair, in a valid block-triangular
  /// order (every structural entry (j, k) has block[j] >= block[k]).
  /// Indexed by row id; −1 for rows outside the square block.
  std::vector<graph::index_t> block_of_row;
  graph::index_t num_blocks = 0;

  /// True iff the square block is a single SCC — the matrix part is
  /// irreducible and BTF cannot split it.
  [[nodiscard]] bool is_irreducible() const { return num_blocks <= 1; }
};

/// Computes the fine decomposition of the square block.  `m` must be
/// maximum (same contract as `dulmage_mendelsohn`); `dm` must be the
/// coarse decomposition of (g, m).
[[nodiscard]] FineDecomposition fine_decomposition(const BipartiteGraph& g,
                                                   const Matching& m,
                                                   const DulmageMendelsohn& dm);

}  // namespace bpm::matching
