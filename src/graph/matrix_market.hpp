#pragma once

#include <iosfwd>
#include <string>

#include "graph/bipartite_graph.hpp"

namespace bpm::graph {

/// Matrix Market (.mtx) coordinate-format I/O.
///
/// The paper evaluates on bipartite graphs of sparse matrices from the
/// UFL (SuiteSparse) collection, which are distributed in this format.
/// A matrix A induces the bipartite graph with an edge {row i, column j}
/// for every structural nonzero a_ij — numerical values are ignored for
/// cardinality matching.
///
/// Supported headers:
///   %%MatrixMarket matrix coordinate {pattern|real|integer|complex}
///                  {general|symmetric|skew-symmetric|hermitian}
/// Symmetric variants mirror each off-diagonal entry (i,j) to (j,i), as
/// SuiteSparse stores only the lower triangle.
///
/// The size line `rows cols nnz` is the first line after the header that
/// is neither empty nor a `%` comment.  Both dimensions must be
/// non-negative and fit 32-bit indices, nnz must be non-negative, and a
/// symmetric, skew-symmetric or hermitian matrix must be square; each
/// violation fails at the size line.  Exactly nnz entry lines follow
/// (comments and empty lines may sit among them); after them only
/// comments and blank lines may remain.
///
/// Entries are scanned in place from the read buffer, with no per-line
/// copy.  Each field takes what `istream >>` takes: leading blanks, one
/// optional sign, no separator needed after a number, and whatever
/// follows the last field read is ignored.  Reals reject nan, inf,
/// overflow and a dangling exponent.  No line may exceed 1 MiB.
///
/// Throws `std::runtime_error` with a line number on malformed input.
[[nodiscard]] BipartiteGraph read_matrix_market(std::istream& in);
[[nodiscard]] BipartiteGraph read_matrix_market_file(const std::string& path);

/// Writes `g` as a `pattern general` coordinate matrix (1-based indices).
/// `read_matrix_market(write_matrix_market(g)) == g` structurally.
void write_matrix_market(std::ostream& out, const BipartiteGraph& g);
void write_matrix_market_file(const std::string& path,
                              const BipartiteGraph& g);

}  // namespace bpm::graph
