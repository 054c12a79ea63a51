#pragma once

#include "core/stats.hpp"
#include "device/device.hpp"
#include "graph/bipartite_graph.hpp"
#include "matching/matching.hpp"

namespace bpm::gpu {

struct GhkOptions {
  /// true → G-HKDW (extra unrestricted DFS pass per phase, the
  /// Duff–Wiberg extension); false → plain G-HK.
  bool duff_wiberg = true;
};

struct GhkResult {
  matching::Matching matching;
  GhkStats stats;
};

/// G-HK / G-HKDW: the authors' earlier GPU Hopcroft–Karp comparators,
/// re-implemented on the same device engine so that the paper's
/// G-PR-vs-G-HKDW comparison is apples-to-apples.
///
/// Each phase is (a) a level-synchronous BFS from unmatched columns — one
/// kernel launch per level, stopping at the first level that touches an
/// unmatched row — and (b) an augmentation kernel in which each unmatched
/// column walks the level DAG by thread-local DFS, claiming rows with
/// plain racy stores (claim[u] ← root id, last writer wins, no atomics).
/// A validation kernel then applies exactly the paths whose every row is
/// still owned by their root, which makes the applied set vertex-disjoint
/// without locks.  Losers retry in the next phase.  If claim collisions
/// ever invalidate *all* found paths, one host-side augmentation forces
/// progress (counted in GhkStats::sequential_fallbacks; this replaces the
/// restart heuristics of the original code with a deterministic guarantee).
///
/// With `duff_wiberg`, a second, level-unrestricted claim-DFS pass runs
/// after each phase, sweeping longer augmenting paths before the next BFS
/// is paid for — the HKDW idea.
GhkResult g_hk(device::Device& dev, const graph::BipartiteGraph& g,
               const matching::ValidMatching& init,
               const GhkOptions& options = {});

}  // namespace bpm::gpu
