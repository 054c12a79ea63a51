#pragma once

#include <cstdint>

#include "graph/bipartite_graph.hpp"
#include "matching/matching.hpp"

namespace bpm::device {
class ThreadPool;
}  // namespace bpm::device

namespace bpm::mc {

struct PdbfsStats {
  std::int64_t rounds = 0;
  std::int64_t augmentations = 0;
  std::int64_t blocked_searches = 0;    ///< BFSs starved by others' claims
  std::int64_t sequential_cleanup = 0;  ///< tail augmentations done serially
};

struct PdbfsResult {
  matching::Matching matching;
  PdbfsStats stats;
};

/// P-DBFS (Azad et al.): the multicore comparator the paper benchmarks
/// against — parallel vertex-disjoint BFSs.
///
/// Each round snapshots the unmatched columns and runs one batch of
/// `pool->size()` slots on the pool (the paper runs 8 threads); a null
/// pool runs one slot on the calling thread.  Each slot claims columns
/// from a shared cursor and grows a BFS tree from each, acquiring every
/// row it touches with an atomic compare-and-swap on a claim array
/// (multicore codes may use atomics, unlike the GPU kernels); rows owned
/// by another tree are skipped, which keeps concurrently-found augmenting
/// paths vertex-disjoint and lets them be applied immediately without
/// further synchronisation.  Searches starved by foreign claims retry in
/// the next round.  When a whole round augments nothing, the remaining
/// (few) columns are finished with sequential unrestricted BFS — claims
/// can block a path that actually exists, so a zero round does not prove
/// maximality.
PdbfsResult p_dbfs(const graph::BipartiteGraph& g,
                   const matching::ValidMatching& init,
                   device::ThreadPool* pool);

}  // namespace bpm::mc
