#include "matching/pothen_fan.hpp"

#include "matching/detail/augment_dfs.hpp"

namespace bpm::matching {

Matching pothen_fan(const BipartiteGraph& g, const ValidMatching& init,
                    PfStats* stats) {
  PfStats local{};
  if (!stats) stats = &local;

  Matching m = init;
  detail::DfsWorkspace ws(g);
  while (true) {
    const index_t augmented = detail::dfs_augment_phase(g, m, ws);
    ++stats->phases;
    stats->augmentations += augmented;
    if (augmented == 0) break;  // no path in a full disjoint phase: maximum
  }
  return m;
}

}  // namespace bpm::matching
