#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/bipartite_graph.hpp"

namespace bpm::graph {

/// An edge {row u, column v} of a bipartite graph.
struct Edge {
  index_t row;
  index_t col;

  friend bool operator==(const Edge&, const Edge&) = default;
};

/// Builds a `BipartiteGraph` from an arbitrary edge list.
///
/// Duplicates are removed and adjacency lists are sorted.  Edges are
/// counting-sorted by row straight into the row CSR, each row is sorted
/// and deduplicated in place, and the column CSR is scattered from the
/// rows in order, so it needs no sort (O(|E| log d_max + m + n)).
/// Out-of-range endpoints throw `std::invalid_argument` — generators and
/// file readers are expected to produce in-range vertices, and silently
/// clamping would corrupt experiments.
[[nodiscard]] BipartiteGraph build_from_edges(index_t num_rows,
                                              index_t num_cols,
                                              std::span<const Edge> edges);

/// Convenience overload.
[[nodiscard]] BipartiteGraph build_from_edges(
    index_t num_rows, index_t num_cols,
    const std::vector<std::pair<index_t, index_t>>& edges);

/// Returns the same graph with rows and columns independently relabeled by
/// random permutations (seeded).  Used by tests to check that algorithms
/// are invariant to vertex order, and by generators to destroy the
/// artificial locality of lattice constructions.
[[nodiscard]] BipartiteGraph permute_vertices(const BipartiteGraph& g,
                                              std::uint64_t seed);

}  // namespace bpm::graph
