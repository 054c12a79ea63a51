#include "graph/builder.hpp"

#include <algorithm>
#include <functional>
#include <numeric>
#include <stdexcept>

#include "util/rng.hpp"

namespace bpm::graph {

namespace {

/// After a scatter that advanced each `ptr[i]` from its list's start to
/// its end (the next list's start), shifts the starts back into place.
void shift_right(std::vector<offset_t>& ptr) {
  if (ptr.size() < 2) return;  // no lists: ptr is {0}
  std::copy_backward(ptr.begin(), ptr.end() - 2, ptr.end() - 1);
  ptr.front() = 0;
}

/// Sorts and dedups each row of a row CSR in place, compacting rows
/// leftwards.  The counting sort that filled it is stable, so a row whose
/// columns arrived strictly increasing (as row-major and column-major
/// files deliver them) needs neither.
void sort_and_dedup_rows(std::vector<offset_t>& row_ptr,
                         std::vector<index_t>& row_adj) {
  const std::size_t rows = row_ptr.size() - 1;
  offset_t kept = 0;
  offset_t begin = 0;  // the row's start before compaction
  for (std::size_t u = 0; u < rows; ++u) {
    const offset_t end = row_ptr[u + 1];
    const auto first = row_adj.begin() + begin;
    auto last = row_adj.begin() + end;
    if (std::adjacent_find(first, last, std::greater_equal<>()) != last) {
      std::sort(first, last);
      last = std::unique(first, last);
    }
    row_ptr[u] = kept;
    if (kept != begin) std::move(first, last, row_adj.begin() + kept);
    kept += last - first;
    begin = end;
  }
  row_ptr[rows] = kept;
  if (static_cast<std::size_t>(kept) != row_adj.size()) {
    row_adj.resize(static_cast<std::size_t>(kept));
    row_adj.shrink_to_fit();
  }
}

}  // namespace

BipartiteGraph build_from_edges(index_t num_rows, index_t num_cols,
                                std::span<const Edge> edges) {
  if (num_rows < 0 || num_cols < 0)
    throw std::invalid_argument("build_from_edges: negative dimension");
  const auto rows = static_cast<std::size_t>(num_rows);
  const auto cols = static_cast<std::size_t>(num_cols);

  // Counting sort by row, straight into row_adj; the range checks ride
  // along.
  std::vector<offset_t> row_ptr(rows + 1, 0);
  for (const Edge& e : edges) {
    if (e.row < 0 || e.row >= num_rows || e.col < 0 || e.col >= num_cols)
      throw std::invalid_argument(
          "build_from_edges: edge endpoint out of range");
    ++row_ptr[static_cast<std::size_t>(e.row) + 1];
  }
  std::partial_sum(row_ptr.begin(), row_ptr.end(), row_ptr.begin());
  std::vector<index_t> row_adj(edges.size());
  for (const Edge& e : edges)
    row_adj[static_cast<std::size_t>(
        row_ptr[static_cast<std::size_t>(e.row)]++)] = e.col;
  shift_right(row_ptr);
  sort_and_dedup_rows(row_ptr, row_adj);

  // Scatter the rows in order into the column CSR: each column list comes
  // out sorted because rows are visited in increasing order.
  std::vector<offset_t> col_ptr(cols + 1, 0);
  for (const index_t v : row_adj) ++col_ptr[static_cast<std::size_t>(v) + 1];
  std::partial_sum(col_ptr.begin(), col_ptr.end(), col_ptr.begin());
  std::vector<index_t> col_adj(row_adj.size());
  for (std::size_t u = 0; u < rows; ++u)
    for (auto k = static_cast<std::size_t>(row_ptr[u]);
         k < static_cast<std::size_t>(row_ptr[u + 1]); ++k) {
      const auto v = static_cast<std::size_t>(row_adj[k]);
      col_adj[static_cast<std::size_t>(col_ptr[v]++)] =
          static_cast<index_t>(u);
    }
  shift_right(col_ptr);

  return BipartiteGraph(num_rows, num_cols, std::move(row_ptr),
                        std::move(row_adj), std::move(col_ptr),
                        std::move(col_adj));
}

BipartiteGraph build_from_edges(
    index_t num_rows, index_t num_cols,
    const std::vector<std::pair<index_t, index_t>>& edges) {
  std::vector<Edge> es;
  es.reserve(edges.size());
  for (auto [u, v] : edges) es.push_back({u, v});
  return build_from_edges(num_rows, num_cols, es);
}

BipartiteGraph permute_vertices(const BipartiteGraph& g, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<index_t> row_perm(static_cast<std::size_t>(g.num_rows()));
  std::vector<index_t> col_perm(static_cast<std::size_t>(g.num_cols()));
  std::iota(row_perm.begin(), row_perm.end(), 0);
  std::iota(col_perm.begin(), col_perm.end(), 0);
  std::shuffle(row_perm.begin(), row_perm.end(), rng);
  std::shuffle(col_perm.begin(), col_perm.end(), rng);

  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(g.num_edges()));
  for (index_t u = 0; u < g.num_rows(); ++u)
    for (index_t v : g.row_neighbors(u))
      edges.push_back({row_perm[static_cast<std::size_t>(u)],
                       col_perm[static_cast<std::size_t>(v)]});
  return build_from_edges(g.num_rows(), g.num_cols(), edges);
}

}  // namespace bpm::graph
