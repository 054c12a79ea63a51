#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/bipartite_graph.hpp"

namespace bpm::graph {

/// Structural class of a benchmark instance; determines which generator
/// produces its synthetic analogue.
enum class InstanceClass {
  kSocial,     ///< power-law social/co-purchase (Chung–Lu)
  kWeb,        ///< power-law web crawl (Chung–Lu, heavier tail)
  kKron,       ///< Kronecker / R-MAT (kron_g500)
  kRoad,       ///< road network lattice
  kOsm,        ///< polyline OSM road export (degree ≈ 2)
  kDelaunay,   ///< planar triangulation
  kTrace,      ///< huge-diameter FEM strip (hugetrace/hugebubbles)
  kCoPaper,    ///< overlapping-clique co-authorship
  kCircuit,    ///< zero-free-diagonal circuit matrix (planted perfect)
  kCombinat,   ///< unstructured rectangular combinatorial matrix
};

[[nodiscard]] const char* to_string(InstanceClass c);

/// Runtimes and matching sizes the paper reports in Table I for one graph.
/// Kept alongside each instance so the bench harnesses can print
/// paper-vs-measured rows without a separate data file.
struct PaperNumbers {
  std::int64_t rows = 0;
  std::int64_t cols = 0;
  std::int64_t edges = 0;
  std::int64_t initial_matching = 0;   ///< IM column
  std::int64_t maximum_matching = 0;   ///< MM column
  double g_pr_s = 0.0;                 ///< G-PR runtime, seconds
  double g_hkdw_s = 0.0;               ///< G-HKDW runtime, seconds
  double p_dbfs_s = 0.0;               ///< P-DBFS runtime, seconds
  double pr_s = 0.0;                   ///< sequential PR runtime, seconds
};

/// One of the 28 evaluation instances (Table I order, ordered by #rows).
struct Instance {
  int id = 0;                 ///< 1-based Table I id
  std::string name;           ///< paper graph name
  InstanceClass cls;
  PaperNumbers paper;

  /// Generates the synthetic analogue.  `scale` multiplies the paper's
  /// vertex count (default harness scale is 1/64); `seed` feeds the
  /// deterministic generator.
  [[nodiscard]] BipartiteGraph build(double scale, std::uint64_t seed) const;
};

/// The full 28-instance registry in Table I order.
[[nodiscard]] const std::vector<Instance>& paper_instances();

/// Subset selection used by fast CI runs: every `stride`-th instance.
[[nodiscard]] std::vector<Instance> select_instances(int stride);

}  // namespace bpm::graph
