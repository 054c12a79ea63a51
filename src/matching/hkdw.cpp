#include "matching/hkdw.hpp"

#include "matching/detail/augment_dfs.hpp"
#include "matching/detail/hk_phase.hpp"

namespace bpm::matching {

Matching hkdw(const BipartiteGraph& g, const ValidMatching& init,
              HkdwStats* stats) {
  HkdwStats local{};
  if (!stats) stats = &local;

  Matching m = init;
  detail::HkWorkspace hk_ws(g);
  detail::DfsWorkspace dfs_ws(g);
  while (true) {
    index_t hk_augmented = 0;
    if (!detail::hk_phase(g, m, hk_ws, &hk_augmented)) break;
    ++stats->phases;
    stats->hk_augmentations += hk_augmented;
    // Duff–Wiberg: sweep up longer paths before paying for another BFS.
    stats->dw_augmentations += detail::dfs_augment_phase(g, m, dfs_ws);
  }
  return m;
}

}  // namespace bpm::matching
