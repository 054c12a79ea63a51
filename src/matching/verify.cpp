#include "matching/verify.hpp"

#include <queue>
#include <utility>
#include <vector>

namespace bpm::matching {

AlternatingReach alternating_reach(const BipartiteGraph& g, const Matching& m,
                                   Side from) {
  const bool from_cols = from == Side::kCols;
  std::vector<char> row_reached(static_cast<std::size_t>(g.num_rows()), 0);
  std::vector<char> col_reached(static_cast<std::size_t>(g.num_cols()), 0);
  // "near" is the start side, "far" the other one.  Raw pointers in locals
  // keep the char stores below from forcing reloads of the vectors' data
  // pointers on every edge.
  char* const near_seen = from_cols ? col_reached.data() : row_reached.data();
  char* const far_seen = from_cols ? row_reached.data() : col_reached.data();
  const index_t* const near_match =
      from_cols ? m.col_match.data() : m.row_match.data();
  const index_t* const far_match =
      from_cols ? m.row_match.data() : m.col_match.data();
  const std::size_t near_count =
      from_cols ? col_reached.size() : row_reached.size();

  bool augmenting = false;
  std::vector<index_t> queue;  // start-side vertices, in BFS order
  queue.reserve(near_count);
  for (std::size_t v = 0; v < near_count; ++v) {
    if (near_match[v] < 0) {
      near_seen[v] = 1;
      queue.push_back(static_cast<index_t>(v));
    }
  }
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const index_t v = queue[head];
    for (index_t u : from_cols ? g.col_neighbors(v) : g.row_neighbors(v)) {
      if (far_seen[u]) continue;
      far_seen[u] = 1;
      const index_t w = far_match[u];
      if (w < 0) {
        augmenting = true;  // v's path ends at a free far vertex
        continue;
      }
      if (!near_seen[w]) {
        near_seen[w] = 1;
        queue.push_back(w);
      }
    }
  }
  return {std::move(row_reached), std::move(col_reached), augmenting};
}

bool is_maximum(const BipartiteGraph& g, const Matching& m) {
  return !alternating_reach(g, m, Side::kCols).augmenting;
}

index_t reference_maximum_cardinality(const BipartiteGraph& g) {
  // Deliberately simple: repeated BFS, one augmentation per search.
  // O(V·E) worst case, fine for test-sized graphs.
  const auto nrows = static_cast<std::size_t>(g.num_rows());
  const auto ncols = static_cast<std::size_t>(g.num_cols());
  std::vector<index_t> row_match(nrows, kUnmatched);
  std::vector<index_t> col_match(ncols, kUnmatched);
  std::vector<index_t> parent_row(nrows);  // column we arrived from
  std::vector<char> col_visited(ncols);
  index_t cardinality = 0;

  for (index_t start = 0; start < g.num_cols(); ++start) {
    if (col_match[static_cast<std::size_t>(start)] != kUnmatched) continue;
    std::fill(col_visited.begin(), col_visited.end(), 0);
    std::fill(parent_row.begin(), parent_row.end(), kUnmatched);
    std::queue<index_t> frontier;
    frontier.push(start);
    col_visited[static_cast<std::size_t>(start)] = 1;
    index_t end_row = kUnmatched;
    while (!frontier.empty() && end_row == kUnmatched) {
      const index_t v = frontier.front();
      frontier.pop();
      for (index_t u : g.col_neighbors(v)) {
        if (parent_row[static_cast<std::size_t>(u)] != kUnmatched) continue;
        parent_row[static_cast<std::size_t>(u)] = v;
        const index_t w = row_match[static_cast<std::size_t>(u)];
        if (w == kUnmatched) {
          end_row = u;
          break;
        }
        if (!col_visited[static_cast<std::size_t>(w)]) {
          col_visited[static_cast<std::size_t>(w)] = 1;
          frontier.push(w);
        }
      }
    }
    if (end_row == kUnmatched) continue;
    // Flip the path backwards to the start column.
    index_t u = end_row;
    while (true) {
      const index_t v = parent_row[static_cast<std::size_t>(u)];
      const index_t prev_u = col_match[static_cast<std::size_t>(v)];
      row_match[static_cast<std::size_t>(u)] = v;
      col_match[static_cast<std::size_t>(v)] = u;
      if (prev_u == kUnmatched) break;
      u = prev_u;
    }
    ++cardinality;
  }
  return cardinality;
}

}  // namespace bpm::matching
