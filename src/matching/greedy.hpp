#pragma once

#include "graph/bipartite_graph.hpp"
#include "matching/matching.hpp"

namespace bpm::matching {

/// The "cheap matching" greedy heuristic the paper uses to initialise
/// *every* algorithm before timing begins (Section IV): scan columns in
/// order and match each to its first free neighbor.  O(|E|).
[[nodiscard]] ValidMatching cheap_matching(const BipartiteGraph& g);

/// Karp–Sipser-style heuristic: repeatedly match degree-1 vertices first
/// (their pendant edge is always in some maximum matching), then fall back
/// to an arbitrary edge.  Produces larger initial matchings than
/// `cheap_matching` on sparse graphs; it is `admit_instance`'s default
/// shared init, so the pipeline, the service and `mtx_matcher` start from
/// it (the paper-figure harnesses keep `cheap_matching`).
[[nodiscard]] ValidMatching karp_sipser(const BipartiteGraph& g);

}  // namespace bpm::matching
