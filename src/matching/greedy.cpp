#include "matching/greedy.hpp"

#include <deque>
#include <utility>
#include <vector>

namespace bpm::matching {

ValidMatching cheap_matching(const BipartiteGraph& g) {
  Matching m(g);
  for (index_t v = 0; v < g.num_cols(); ++v) {
    for (index_t u : g.col_neighbors(v)) {
      if (m.row_match[static_cast<std::size_t>(u)] == kUnmatched) {
        m.row_match[static_cast<std::size_t>(u)] = v;
        m.col_match[static_cast<std::size_t>(v)] = u;
        break;
      }
    }
  }
  return {g, std::move(m), ValidMatching::Built{}};
}

ValidMatching karp_sipser(const BipartiteGraph& g) {
  Matching m(g);
  const auto nrows = static_cast<std::size_t>(g.num_rows());
  const auto ncols = static_cast<std::size_t>(g.num_cols());

  // Residual degrees; a vertex leaves the pool when matched.
  std::vector<index_t> row_deg(nrows), col_deg(ncols);
  for (index_t u = 0; u < g.num_rows(); ++u)
    row_deg[static_cast<std::size_t>(u)] = g.row_degree(u);
  for (index_t v = 0; v < g.num_cols(); ++v)
    col_deg[static_cast<std::size_t>(v)] = g.col_degree(v);

  // Queue of degree-1 vertices; rows encoded as u, columns as nrows+v.
  std::deque<index_t> pendant;
  for (index_t u = 0; u < g.num_rows(); ++u)
    if (row_deg[static_cast<std::size_t>(u)] == 1) pendant.push_back(u);
  for (index_t v = 0; v < g.num_cols(); ++v)
    if (col_deg[static_cast<std::size_t>(v)] == 1)
      pendant.push_back(g.num_rows() + v);

  auto matched_row = [&](index_t u) {
    return m.row_match[static_cast<std::size_t>(u)] != kUnmatched;
  };
  auto matched_col = [&](index_t v) {
    return m.col_match[static_cast<std::size_t>(v)] != kUnmatched;
  };

  auto take_edge = [&](index_t u, index_t v) {
    m.row_match[static_cast<std::size_t>(u)] = v;
    m.col_match[static_cast<std::size_t>(v)] = u;
    for (index_t w : g.row_neighbors(u)) {
      if (--col_deg[static_cast<std::size_t>(w)] == 1 && !matched_col(w))
        pendant.push_back(g.num_rows() + w);
    }
    for (index_t w : g.col_neighbors(v)) {
      if (--row_deg[static_cast<std::size_t>(w)] == 1 && !matched_row(w))
        pendant.push_back(w);
    }
  };

  auto drain_pendants = [&] {
    while (!pendant.empty()) {
      const index_t x = pendant.front();
      pendant.pop_front();
      if (x < g.num_rows()) {
        const index_t u = x;
        if (matched_row(u)) continue;
        for (index_t v : g.row_neighbors(u)) {
          if (!matched_col(v)) {
            take_edge(u, v);
            break;
          }
        }
      } else {
        const index_t v = x - g.num_rows();
        if (matched_col(v)) continue;
        for (index_t u : g.col_neighbors(v)) {
          if (!matched_row(u)) {
            take_edge(u, v);
            break;
          }
        }
      }
    }
  };

  drain_pendants();
  // Phase 2: arbitrary edges, re-draining pendants after each pick.
  for (index_t v = 0; v < g.num_cols(); ++v) {
    if (matched_col(v)) continue;
    for (index_t u : g.col_neighbors(v)) {
      if (!matched_row(u)) {
        take_edge(u, v);
        drain_pendants();
        break;
      }
    }
  }
  return {g, std::move(m), ValidMatching::Built{}};
}

}  // namespace bpm::matching
