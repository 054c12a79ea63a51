#pragma once

#include <cstdint>
#include <string>

#include "graph/bipartite_graph.hpp"

namespace bpm::policy {

/// The cheap structural summary of one instance that drives solver
/// selection: computed once at admission (`admit_instance` fills
/// `PipelineInstance::features`, so `serve::InstanceStore` caches it per
/// structural fingerprint) and matched against the calibration table's
/// feature buckets by `CostModel`.
///
/// Everything here is O(cols) off the CSR column pointers plus the shared
/// init's cardinality — no edge-array pass — so feature extraction
/// never shows up next to a solve.  The paper's own comparison work
/// (arXiv:1303.1379) flips winners exactly along these axes: size,
/// density, degree skew, and deficiency.
struct InstanceFeatures {
  std::int64_t rows = 0;
  std::int64_t cols = 0;
  std::int64_t edges = 0;
  /// edges / (rows * cols) — the classic density.
  double density = 0.0;
  /// Mean degree over non-empty columns.
  double avg_degree = 0.0;
  /// Max/mean column degree over non-empty columns — 1 is perfectly
  /// uniform, hub instances run to 10+.  Copied to the admission-time
  /// `PipelineInstance::degree_skew`.
  double degree_skew = 0.0;
  /// 1 - init_cardinality / min(rows, cols): how far the shared init
  /// left the instance from trivially saturated.  Near 0 means the
  /// solver mostly verifies; a few percent means real augmenting work.
  double deficiency_est = 0.0;
};

/// Computes the features of `g` given the shared init's cardinality.
/// Deterministic in the graph structure and invariant under vertex
/// relabeling.
[[nodiscard]] InstanceFeatures compute_features(
    const graph::BipartiteGraph& g, graph::index_t init_cardinality);

/// A feature bucket of the calibration table: coarse bands per axis, so a
/// handful of calibration instances covers the whole feature space and an
/// unseen instance lands in (or next to) a calibrated cell.
struct BucketId {
  int size = 0;        ///< log8-ish edge-count band
  int degree = 0;      ///< average-degree band
  int skew = 0;        ///< degree-skew band
  int deficiency = 0;  ///< deficiency band

  /// The stable string key used in calibration tables and metrics
  /// ("s4.d2.k1.f2").
  [[nodiscard]] std::string key() const;
  /// Parses a `key()` string; returns false on anything else.
  static bool parse(const std::string& key, BucketId& out);

  /// Weighted axis distance for nearest-bucket fallback: size is the
  /// cheapest axis to relax (per-edge cost transfers across sizes),
  /// deficiency next, skew and degree shape the algorithm choice most.
  [[nodiscard]] int distance(const BucketId& other) const;

  [[nodiscard]] bool operator==(const BucketId& other) const = default;
};

/// The bucket `f` falls into.
[[nodiscard]] BucketId bucket_of(const InstanceFeatures& f);

}  // namespace bpm::policy
