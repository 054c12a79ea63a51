#pragma once

#include <cstdint>
#include <utility>

#include "graph/bipartite_graph.hpp"
#include "matching/matching.hpp"

namespace bpm::matching {

struct HkStats {
  std::int64_t phases = 0;         ///< BFS+DFS rounds
  std::int64_t augmentations = 0;  ///< paths applied
};

/// Hopcroft–Karp: repeated phases of (a) BFS building the layered graph of
/// shortest alternating paths from unmatched columns, stopped at the first
/// layer containing unmatched rows, and (b) a maximal set of vertex-
/// disjoint shortest augmenting paths found by iterative DFS inside the
/// layers.  O(τ√(n+m)) worst case — the best known bound, and the basis of
/// the paper's G-HK / G-HKDW comparators.
[[nodiscard]] Matching hopcroft_karp(const BipartiteGraph& g,
                                     const ValidMatching& init,
                                     HkStats* stats = nullptr);

/// Proves `init` valid for `g` (`ValidMatching`), then runs from it.
[[nodiscard]] inline Matching hopcroft_karp(const BipartiteGraph& g,
                                            Matching init,
                                            HkStats* stats = nullptr) {
  return hopcroft_karp(g, ValidMatching(g, std::move(init)), stats);
}

}  // namespace bpm::matching
