#pragma once

#include <vector>

#include "graph/bipartite_graph.hpp"
#include "matching/matching.hpp"

namespace bpm::matching {

/// The side of the bipartite graph an alternating search starts from.
enum class Side { kRows, kCols };

/// Vertices reachable by M-alternating paths from every unmatched vertex
/// of one side: leave a start vertex along any edge, and return to the
/// start side only along matched edges.
struct AlternatingReach {
  std::vector<char> row_reached;
  std::vector<char> col_reached;
  /// The search touched an unmatched vertex of the far side, i.e. an
  /// M-augmenting path exists (M is not maximum).
  bool augmenting = false;
};

/// One BFS over alternating paths from all unmatched vertices of `from`.
/// O(m + n + |E|).  The one alternating-reach routine behind the Berge
/// certificate (`is_maximum`), the coarse Dulmage–Mendelsohn split and the
/// König vertex cover.
[[nodiscard]] AlternatingReach alternating_reach(const BipartiteGraph& g,
                                                 const Matching& m, Side from);

/// Independent maximality certificate, used by `run_verified` and every
/// algorithm test.
///
/// By Berge's theorem (the paper's Theorem 1), M is maximum iff no
/// M-augmenting path exists: iff the alternating reach from the unmatched
/// columns touches no unmatched row.  O(m + n + |E|) — cheap enough to run
/// after every solve, and entirely separate from the algorithms under test.
[[nodiscard]] bool is_maximum(const BipartiteGraph& g, const Matching& m);

/// Cardinality of a maximum matching, computed by an internal
/// Hopcroft–Karp-style reference (repeated disjoint augmentation).  Used
/// by tests as ground truth; intentionally written independently from
/// `matching/hopcroft_karp.cpp` (simple BFS+single augment, no phases) so
/// the reference and the production code cannot share a bug.
[[nodiscard]] index_t reference_maximum_cardinality(const BipartiteGraph& g);

}  // namespace bpm::matching
