#include "matching/hopcroft_karp.hpp"

#include "matching/detail/hk_phase.hpp"

namespace bpm::matching {

Matching hopcroft_karp(const BipartiteGraph& g, const ValidMatching& init,
                       HkStats* stats) {
  HkStats local{};
  if (!stats) stats = &local;

  Matching m = init;
  detail::HkWorkspace ws(g);
  index_t augmentations = 0;
  while (detail::hk_phase(g, m, ws, &augmentations)) ++stats->phases;
  stats->augmentations = augmentations;
  return m;
}

}  // namespace bpm::matching
