#pragma once

#include <cstdint>

#include "graph/bipartite_graph.hpp"
#include "matching/matching.hpp"

namespace bpm::matching {

struct PfStats {
  std::int64_t phases = 0;
  std::int64_t augmentations = 0;
};

/// Pothen–Fan with lookahead ("PF+"): repeated phases of vertex-disjoint
/// DFS augmentation, where each column first probes its remaining
/// adjacency for a directly-unmatched row before descending (amortised
/// O(|E|) lookahead over the whole run).  One of the three sequential
/// algorithms the paper uses to filter its instance set ("graphs where all
/// sequential algorithms finish under one second are dropped").
[[nodiscard]] Matching pothen_fan(const BipartiteGraph& g,
                                  const ValidMatching& init,
                                  PfStats* stats = nullptr);

}  // namespace bpm::matching
