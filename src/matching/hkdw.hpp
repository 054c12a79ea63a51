#pragma once

#include <cstdint>

#include "graph/bipartite_graph.hpp"
#include "matching/matching.hpp"

namespace bpm::matching {

struct HkdwStats {
  std::int64_t phases = 0;
  std::int64_t hk_augmentations = 0;   ///< paths found by the layered DFS
  std::int64_t dw_augmentations = 0;   ///< paths found by the extra DFS pass
};

/// HKDW: Hopcroft–Karp with the Duff–Wiberg extension.  After each layered
/// phase, an extra *unrestricted* DFS-with-lookahead pass augments from
/// the columns the layered DFS left unmatched, trading extra per-phase
/// work for fewer phases.  Same O(τ√(n+m)) worst case as HK; usually
/// faster in practice — this is the algorithm behind the paper's G-HKDW
/// GPU comparator.
[[nodiscard]] Matching hkdw(const BipartiteGraph& g, const ValidMatching& init,
                            HkdwStats* stats = nullptr);

}  // namespace bpm::matching
