#include "policy/features.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace bpm::policy {

InstanceFeatures compute_features(const graph::BipartiteGraph& g,
                                  graph::index_t init_cardinality) {
  InstanceFeatures f;
  f.rows = g.num_rows();
  f.cols = g.num_cols();
  f.edges = g.num_edges();
  const auto& col_ptr = g.col_ptr();

  std::int64_t nonempty = 0, max_deg = 0;
  for (std::size_t v = 0; v + 1 < col_ptr.size(); ++v) {
    const std::int64_t deg = col_ptr[v + 1] - col_ptr[v];
    if (deg == 0) continue;
    ++nonempty;
    max_deg = std::max(max_deg, deg);
  }
  if (f.rows > 0 && f.cols > 0)
    f.density = static_cast<double>(f.edges) /
                (static_cast<double>(f.rows) * static_cast<double>(f.cols));
  if (nonempty > 0) {
    f.avg_degree = static_cast<double>(f.edges) / static_cast<double>(nonempty);
    f.degree_skew = static_cast<double>(max_deg) / f.avg_degree;
  }

  const std::int64_t side = std::min(f.rows, f.cols);
  if (side > 0)
    f.deficiency_est = 1.0 - static_cast<double>(init_cardinality) /
                                 static_cast<double>(side);
  return f;
}

std::string BucketId::key() const {
  char buf[64];
  std::snprintf(buf, sizeof buf, "s%d.d%d.k%d.f%d", size, degree, skew,
                deficiency);
  return buf;
}

bool BucketId::parse(const std::string& key, BucketId& out) {
  BucketId b;
  char tail = 0;
  if (std::sscanf(key.c_str(), "s%d.d%d.k%d.f%d%c", &b.size, &b.degree,
                  &b.skew, &b.deficiency, &tail) != 4)
    return false;
  out = b;
  return true;
}

int BucketId::distance(const BucketId& other) const {
  return 1 * std::abs(size - other.size) +
         2 * std::abs(deficiency - other.deficiency) +
         3 * std::abs(degree - other.degree) +
         3 * std::abs(skew - other.skew);
}

BucketId bucket_of(const InstanceFeatures& f) {
  BucketId b;
  // Size bands of 8x edges each: band 3 ≈ 10^3..10^4 edges, the massive
  // suite lands around band 7-8.
  b.size = f.edges > 0
               ? static_cast<int>(std::log2(static_cast<double>(f.edges)) / 3.0)
               : 0;
  b.degree = f.avg_degree < 2.0   ? 0
             : f.avg_degree < 4.0 ? 1
             : f.avg_degree < 8.0 ? 2
             : f.avg_degree < 16.0 ? 3
                                   : 4;
  b.skew = f.degree_skew < 2.0 ? 0 : f.degree_skew < 8.0 ? 1 : 2;
  b.deficiency = f.deficiency_est < 0.001  ? 0
                 : f.deficiency_est < 0.02 ? 1
                                           : 2;
  return b;
}

}  // namespace bpm::policy
