#include "matching/dulmage_mendelsohn.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "matching/verify.hpp"

namespace bpm::matching {

namespace {

using graph::index_t;
using Block = DulmageMendelsohn::Block;

/// Assigns each vertex of one side to its block and counts the blocks.
void classify(const std::vector<char>& horizontal,
              const std::vector<char>& vertical, std::vector<Block>& block,
              index_t& horizontal_count, index_t& square_count,
              index_t& vertical_count) {
  block.resize(horizontal.size());
  for (std::size_t i = 0; i < horizontal.size(); ++i) {
    if (horizontal[i]) {
      block[i] = Block::kHorizontal;
      ++horizontal_count;
    } else if (vertical[i]) {
      block[i] = Block::kVertical;
      ++vertical_count;
    } else {
      block[i] = Block::kSquare;
      ++square_count;
    }
  }
}

}  // namespace

DulmageMendelsohn dulmage_mendelsohn(const BipartiteGraph& g,
                                     const Matching& m) {
  if (std::string bad = m.first_violation(g); !bad.empty())
    throw std::invalid_argument("dulmage_mendelsohn: invalid matching: " + bad);
  const AlternatingReach h = alternating_reach(g, m, Side::kCols);
  if (h.augmenting)
    throw std::logic_error(
        "dulmage_mendelsohn: the given matching is not maximum (an "
        "augmenting path exists)");
  const AlternatingReach v = alternating_reach(g, m, Side::kRows);

  DulmageMendelsohn dm;
  classify(h.row_reached, v.row_reached, dm.row_block, dm.horizontal_rows,
           dm.square_rows, dm.vertical_rows);
  classify(h.col_reached, v.col_reached, dm.col_block, dm.horizontal_cols,
           dm.square_cols, dm.vertical_cols);
  return dm;
}

FineDecomposition fine_decomposition(const BipartiteGraph& g,
                                     const Matching& m,
                                     const DulmageMendelsohn& dm) {
  if (std::string bad = m.first_violation(g); !bad.empty())
    throw std::invalid_argument("fine_decomposition: invalid matching: " + bad);
  const auto nrows = static_cast<std::size_t>(g.num_rows());

  FineDecomposition fine;
  fine.block_of_row.assign(nrows, -1);

  // Digraph nodes are the square block's matched pairs, identified by
  // their row.  Arc u -> u' whenever (u, col of pair u') is an entry,
  // i.e. for every v in Γ(u) in the square block, u -> col_match[v].
  // Iterative Tarjan SCC; components are emitted in reverse topological
  // order, which is exactly a valid block-triangular numbering.
  std::vector<index_t> order_index(nrows, -1);  // Tarjan index
  std::vector<index_t> low_link(nrows, 0);
  std::vector<char> on_stack(nrows, 0);
  std::vector<index_t> scc_stack;
  index_t next_index = 0;

  struct Frame {
    index_t u;
    std::size_t next_neighbor;
  };
  std::vector<Frame> dfs;

  auto is_square_row = [&](index_t u) {
    return dm.row_block[static_cast<std::size_t>(u)] ==
               Block::kSquare &&
           m.row_match[static_cast<std::size_t>(u)] >= 0;
  };
  auto arc_target = [&](index_t u, std::size_t slot) -> index_t {
    // The slot-th neighbor of u if it stays inside the square block, or
    // -1 for columns outside it (square rows can touch vertical-block
    // columns; those arcs leave the BTF region and are dropped).
    const index_t v = g.row_neighbors(u)[slot];
    if (dm.col_block[static_cast<std::size_t>(v)] !=
        Block::kSquare)
      return -1;
    return m.col_match[static_cast<std::size_t>(v)];
  };

  for (index_t root = 0; root < g.num_rows(); ++root) {
    if (!is_square_row(root) ||
        order_index[static_cast<std::size_t>(root)] != -1)
      continue;
    dfs.push_back({root, 0});
    order_index[static_cast<std::size_t>(root)] = next_index;
    low_link[static_cast<std::size_t>(root)] = next_index;
    ++next_index;
    scc_stack.push_back(root);
    on_stack[static_cast<std::size_t>(root)] = 1;

    while (!dfs.empty()) {
      Frame& frame = dfs.back();
      const auto uz = static_cast<std::size_t>(frame.u);
      const auto degree = g.row_neighbors(frame.u).size();
      bool descended = false;
      while (frame.next_neighbor < degree) {
        const index_t w = arc_target(frame.u, frame.next_neighbor);
        ++frame.next_neighbor;
        if (w < 0) continue;
        const auto wz = static_cast<std::size_t>(w);
        if (order_index[wz] == -1) {
          order_index[wz] = next_index;
          low_link[wz] = next_index;
          ++next_index;
          scc_stack.push_back(w);
          on_stack[wz] = 1;
          dfs.push_back({w, 0});
          descended = true;
          break;
        }
        if (on_stack[wz])
          low_link[uz] = std::min(low_link[uz], order_index[wz]);
      }
      if (descended) continue;

      if (low_link[uz] == order_index[uz]) {
        // frame.u roots an SCC: pop it as the next diagonal block.
        while (true) {
          const index_t w = scc_stack.back();
          scc_stack.pop_back();
          on_stack[static_cast<std::size_t>(w)] = 0;
          fine.block_of_row[static_cast<std::size_t>(w)] = fine.num_blocks;
          if (w == frame.u) break;
        }
        ++fine.num_blocks;
      }
      const index_t u_low = low_link[uz];
      dfs.pop_back();
      if (!dfs.empty()) {
        const auto pz = static_cast<std::size_t>(dfs.back().u);
        low_link[pz] = std::min(low_link[pz], u_low);
      }
    }
  }
  return fine;
}

VertexCover minimum_vertex_cover(const BipartiteGraph& g, const Matching& m) {
  if (std::string bad = m.first_violation(g); !bad.empty())
    throw std::invalid_argument("minimum_vertex_cover: invalid matching: " +
                                bad);
  // König with columns as the "free" side: Z = vertices reachable from
  // unmatched columns by alternating paths; the cover is
  // (rows ∩ Z) ∪ (columns \ Z).  Every column outside Z is matched (all
  // unmatched columns are Z sources), and |cover| = |M|.
  AlternatingReach z = alternating_reach(g, m, Side::kCols);
  VertexCover cover{std::move(z.row_reached), std::move(z.col_reached)};
  for (char& c : cover.col_in_cover) c = c ? 0 : 1;
  return cover;
}

}  // namespace bpm::matching
