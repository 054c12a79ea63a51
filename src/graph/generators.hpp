#pragma once

#include <cstdint>

#include "graph/bipartite_graph.hpp"

namespace bpm::graph::gen {

/// Synthetic bipartite graph generators.
///
/// The paper evaluates on bipartite graphs of 28 UFL/SuiteSparse matrices.
/// Those files are not redistributable here, so each matrix *class* gets a
/// generator that reproduces the structural properties driving the paper's
/// performance story: degree skew (drives deficiency after greedy init and
/// BFS frontier width), diameter (drives the number of global-relabel BFS
/// levels and hence kernel launches), and locality.
///
/// All generators are deterministic in (parameters, seed).

/// Uniformly random bipartite graph with ~`target_edges` distinct edges
/// (duplicates from sampling are removed, so the realised count can be
/// slightly lower).  Analogue for unstructured rectangular matrices
/// (GL7d19-like when nrows ≈ ncols and degree ≳ log n).
[[nodiscard]] BipartiteGraph random_uniform(index_t num_rows, index_t num_cols,
                                            offset_t target_edges,
                                            std::uint64_t seed);

/// n x n graph with a planted perfect matching plus `extra_degree` random
/// edges per row.  Guarantees maximum matching = n; analogue for circuit
/// matrices with zero-free diagonals (Hamrle3-like).
[[nodiscard]] BipartiteGraph planted_perfect(index_t n, double extra_degree,
                                             std::uint64_t seed);

/// R-MAT / Kronecker graph with 2^scale vertices per side and
/// `edge_factor * 2^scale` sampled edges (kron_g500-logn* analogue).
/// Quadrant probabilities default to the Graph500 values; `d = 1-a-b-c`.
[[nodiscard]] BipartiteGraph rmat(int scale, double edge_factor,
                                  std::uint64_t seed, double a = 0.57,
                                  double b = 0.19, double c = 0.19);

/// Chung–Lu power-law graph: vertex weights follow a Zipf-like law with
/// exponent `gamma` (degree distribution P(d) ~ d^-gamma), average degree
/// `avg_degree`.  Analogue for the social/web/citation instances
/// (amazon, flickr, eu-2005, in-2004, as-Skitter, wikipedia, patents,
/// livejournal, wb-edu).  Vertex ids are randomly permuted so that degree
/// is uncorrelated with index order.
[[nodiscard]] BipartiteGraph chung_lu(index_t num_rows, index_t num_cols,
                                      double avg_degree, double gamma,
                                      std::uint64_t seed);

/// Few-hub skewed-degree graph: `num_hubs` *column* hubs, each adjacent
/// to ~`hub_fraction · num_rows` random rows, over a sparse uniform
/// background of ~`background_degree` edges per column.  This is the
/// straggler instance for vertex-parallel push kernels — one logical
/// thread per column makes a hub serialize its whole launch chunk, the
/// problem edge-balanced work partitioning solves (Hsieh et al.,
/// arXiv:2404.00270); Deveci et al. (arXiv:1303.1379) motivate the same
/// shape with their degree-skewed instance suite.  Choosing
/// `num_rows < num_cols` leaves a structural deficiency that keeps
/// columns — hubs included — active and contended deep into a
/// push-relabel run instead of retiring right after greedy init.
///
/// `scatter` controls where the hubs live in the id space: true randomly
/// permutes vertex ids so degree is uncorrelated with index order (the
/// collection-default the other generators use); false leaves the hubs as
/// a contiguous low-id block — the crawl-ordered regime of real
/// web/social matrices (eu-2005, in-2004), where a static equal-column
/// partition hands one worker the whole hub block: exactly the straggler
/// case edge-balanced partitioning fixes.
[[nodiscard]] BipartiteGraph skewed_hubs(index_t num_rows, index_t num_cols,
                                         index_t num_hubs, double hub_fraction,
                                         double background_degree,
                                         std::uint64_t seed,
                                         bool scatter = true);

/// Road-network analogue (roadNet-PA/TX/CA, italy_osm): the symmetric
/// adjacency matrix of an nx x ny lattice where each lattice edge survives
/// with probability `keep_prob`, plus a sprinkling of shortcut edges.
/// Low `keep_prob` (~0.55) yields the degree≈2 polyline structure of OSM
/// exports; ~0.9 yields US-road-like grids.  High diameter by design.
[[nodiscard]] BipartiteGraph road_network(index_t nx, index_t ny,
                                          double keep_prob,
                                          std::uint64_t seed);

/// Delaunay-triangulation analogue (delaunay_n2x): a triangulated lattice
/// — every lattice cell gets one of its two diagonals at random — giving
/// planar structure with average degree ≈ 6 like a true Delaunay mesh.
[[nodiscard]] BipartiteGraph delaunay_mesh(index_t nx, index_t ny,
                                           std::uint64_t seed);

/// Huge-diameter thin mesh (hugetrace-*/hugebubbles-* analogue): a
/// `length x width` strip with `width << length`; `hole_prob` punches
/// bubbles (deleted vertices) into the strip.  These are the paper's
/// adversarial instances: diameter Θ(length) forces Θ(length) BFS level
/// kernels per global relabel, which is where G-PR loses to CPU codes.
[[nodiscard]] BipartiteGraph trace_mesh(index_t length, index_t width,
                                        double hole_prob, std::uint64_t seed);

/// Co-authorship clique-overlap analogue (coPapersDBLP): vertices are
/// covered by `num_communities` cliques whose sizes are drawn around
/// `avg_community`, each clique spanning a random local window; cliques
/// share vertices, producing dense local structure and a near-perfect
/// greedy matching.  Community sizes are capped to keep |E| manageable.
[[nodiscard]] BipartiteGraph copaper(index_t num_vertices,
                                     index_t num_communities,
                                     double avg_community, std::uint64_t seed);

/// Massive-instance generator (the `massive` suite): ~`avg_degree` random
/// rows per column, plus a hub column every `hub_every` columns with
/// ~`hub_fraction · num_rows` neighbours (0 disables hubs).  Unlike the
/// other generators there is NO intermediate edge list: columns are
/// sampled one at a time straight into the column CSR (a per-column
/// scratch buffer is the only transient), and the row CSR is derived by a
/// counting pass — peak memory is the final graph plus O(max degree), so
/// instances ~10x the rest of the suite build without a memory spike.
/// Hubs stay on their natural ids (no scatter permutation — permuting
/// would materialise an edge list again); they still spread over the
/// column range because they recur every `hub_every` columns.
[[nodiscard]] BipartiteGraph huge_bipartite(index_t num_rows, index_t num_cols,
                                            double avg_degree,
                                            double hub_fraction,
                                            index_t hub_every,
                                            std::uint64_t seed);

// --- Deterministic shapes for tests and examples ---------------------------

/// Complete bipartite K_{m,n}.
[[nodiscard]] BipartiteGraph complete_bipartite(index_t m, index_t n);

/// No edges at all.
[[nodiscard]] BipartiteGraph empty_graph(index_t m, index_t n);

/// One row connected to `leaves` columns (maximum matching = 1).
[[nodiscard]] BipartiteGraph star(index_t leaves);

/// Path r0-c0-r1-c1-...-r(k-1)-c(k-1): k rows, k cols, 2k-1 edges,
/// perfect matching of size k, and — crucially for push-relabel tests —
/// augmenting paths of maximal length.
[[nodiscard]] BipartiteGraph chain(index_t k);

}  // namespace bpm::graph::gen
