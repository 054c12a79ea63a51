#include "core/g_hk.hpp"

#include <deque>
#include <limits>
#include <stdexcept>
#include <vector>

#include "device/mem.hpp"

namespace bpm::gpu {

namespace {

using graph::BipartiteGraph;
using graph::index_t;
using matching::kUnmatched;

constexpr index_t kLvlInf = std::numeric_limits<index_t>::max();

struct HkDeviceState {
  device::relaxed_vector<index_t> mu_row;
  device::relaxed_vector<index_t> mu_col;
  device::relaxed_vector<index_t> lvl_row;
  device::relaxed_vector<index_t> lvl_col;
  device::relaxed_vector<index_t> claim;  ///< owning root column per row

  HkDeviceState(index_t nrows, index_t ncols)
      : mu_row(static_cast<std::size_t>(nrows)),
        mu_col(static_cast<std::size_t>(ncols)),
        lvl_row(static_cast<std::size_t>(nrows)),
        lvl_col(static_cast<std::size_t>(ncols)),
        claim(static_cast<std::size_t>(nrows)) {}
};

/// Level-synchronous BFS from unmatched columns (one launch per level).
/// Returns false when no unmatched row is reachable (matching maximum).
bool bfs_levels(device::Device& dev, const BipartiteGraph& g,
                HkDeviceState& st, GhkStats& stats) {
  dev.launch(g.num_cols(), [&](std::int64_t i) {
    const auto vz = static_cast<std::size_t>(i);
    st.lvl_col.store(vz, st.mu_col.load(vz) == kUnmatched ? 0 : kLvlInf);
  });
  dev.launch(g.num_rows(), [&](std::int64_t i) {
    st.lvl_row.store(static_cast<std::size_t>(i), kLvlInf);
  });

  device::device_flag col_added, free_found;
  index_t level = 0;
  while (true) {
    col_added.reset();
    free_found.reset();
    dev.launch_accounted(g.num_cols(), [&](std::int64_t i) -> std::int64_t {
      const auto v = static_cast<index_t>(i);
      if (st.lvl_col.load(static_cast<std::size_t>(v)) != level) return 0;
      for (index_t u : g.col_neighbors(v)) {
        const auto uz = static_cast<std::size_t>(u);
        if (st.mu_row.load(uz) == kUnmatched) {
          free_found.raise();
          continue;
        }
        if (st.lvl_row.load(uz) != kLvlInf) continue;
        st.lvl_row.store(uz, level + 1);
        const index_t w = st.mu_row.load(uz);
        const auto wz = static_cast<std::size_t>(w);
        if (st.lvl_col.load(wz) == kLvlInf) {
          st.lvl_col.store(wz, level + 2);
          col_added.raise();
        }
      }
      // ~2 uncoalesced gathers per adjacency entry (µ(u), lvl probe).
      return 2 * g.col_degree(v);
    });
    ++stats.bfs_level_kernels;
    if (free_found.is_raised()) return true;   // shortest level reached
    if (!col_added.is_raised()) return false;  // frontier drained
    level += 2;
  }
}

/// Claim-DFS augmentation pass.  Each root (unmatched column) walks either
/// the level DAG (`restrict_levels`) or the whole graph, claiming rows via
/// racy stores; complete paths are stored per-root as
/// [v0, u0, v1, u1, ...] and applied only after validation confirms the
/// root still owns every row on its path.  Returns applied count.
std::int64_t augment_pass(device::Device& dev, const BipartiteGraph& g,
                          HkDeviceState& st, bool restrict_levels) {
  std::vector<index_t> roots;
  for (index_t v = 0; v < g.num_cols(); ++v)
    if (st.mu_col.load(static_cast<std::size_t>(v)) == kUnmatched)
      roots.push_back(v);
  if (roots.empty()) return 0;

  dev.launch(g.num_rows(), [&](std::int64_t i) {
    st.claim.store(static_cast<std::size_t>(i), -1);
  });

  // One private path buffer per root; each slot is written only by the
  // logical thread owning it (CUDA-style thread-private output region).
  std::vector<std::vector<index_t>> paths(roots.size());

  dev.launch_accounted(static_cast<std::int64_t>(roots.size()),
                       [&](std::int64_t i) -> std::int64_t {
    const index_t root = roots[static_cast<std::size_t>(i)];
    auto& path = paths[static_cast<std::size_t>(i)];
    std::int64_t scanned = 0;

    // Thread-local iterative DFS with adjacency cursors.
    std::vector<index_t> col_stack{root};
    std::vector<index_t> row_stack;
    std::vector<std::size_t> cursor{0};
    const auto& col_ptr = g.col_ptr();
    const auto& col_adj = g.col_adj();
    bool complete = false;

    while (!col_stack.empty() && !complete) {
      const index_t v = col_stack.back();
      const auto vz = static_cast<std::size_t>(v);
      const auto deg =
          static_cast<std::size_t>(col_ptr[vz + 1] - col_ptr[vz]);
      bool descended = false;
      while (cursor.back() < deg) {
        const index_t u = col_adj[static_cast<std::size_t>(col_ptr[vz]) +
                                  cursor.back()];
        ++cursor.back();
        scanned += 3;  // lvl_row, claim, µ(u) gathers per edge probed
        const auto uz = static_cast<std::size_t>(u);
        if (restrict_levels &&
            st.lvl_row.load(uz) !=
                st.lvl_col.load(vz) + 1 &&
            st.mu_row.load(uz) != kUnmatched)
          continue;  // off the shortest-path DAG
        if (st.claim.load(uz) != -1) continue;  // taken by another root
        st.claim.store(uz, root);               // racy claim, validated later
        const index_t w = st.mu_row.load(uz);
        if (w == kUnmatched) {
          row_stack.push_back(u);
          complete = true;
          descended = true;
          break;
        }
        row_stack.push_back(u);
        col_stack.push_back(w);
        cursor.push_back(0);
        descended = true;
        break;
      }
      if (!descended) {
        col_stack.pop_back();
        cursor.pop_back();
        if (!row_stack.empty()) row_stack.pop_back();
      }
    }
    if (!complete) return scanned;
    path.reserve(2 * col_stack.size());
    for (std::size_t j = 0; j < col_stack.size(); ++j) {
      path.push_back(col_stack[j]);
      path.push_back(row_stack[j]);
    }
    return scanned;
  });

  // Validate ownership and apply — per-root, vertex-disjoint by claims.
  std::vector<char> applied(roots.size(), 0);
  dev.launch_accounted(static_cast<std::int64_t>(roots.size()),
                       [&](std::int64_t i) -> std::int64_t {
    const auto iz = static_cast<std::size_t>(i);
    const index_t root = roots[iz];
    const auto& path = paths[iz];
    const auto work = static_cast<std::int64_t>(path.size());
    if (path.empty()) return work;
    for (std::size_t j = 1; j < path.size(); j += 2)
      if (st.claim.load(static_cast<std::size_t>(path[j])) != root)
        return work;
    for (std::size_t j = 0; j + 1 < path.size(); j += 2) {
      const index_t v = path[j];
      const index_t u = path[j + 1];
      st.mu_row.store(static_cast<std::size_t>(u), v);
      st.mu_col.store(static_cast<std::size_t>(v), u);
    }
    applied[iz] = 1;
    return work;
  });

  std::int64_t count = 0;
  for (char a : applied) count += a;
  return count;
}

/// Host fallback forcing progress when claim collisions starve a phase:
/// one plain BFS augmentation on the (consistent) matching.
bool host_augment_once(const BipartiteGraph& g, HkDeviceState& st) {
  std::vector<index_t> parent_row(static_cast<std::size_t>(g.num_rows()),
                                  kUnmatched);
  std::vector<char> col_seen(static_cast<std::size_t>(g.num_cols()), 0);
  std::deque<index_t> queue;
  for (index_t v = 0; v < g.num_cols(); ++v) {
    if (st.mu_col.load(static_cast<std::size_t>(v)) == kUnmatched) {
      col_seen[static_cast<std::size_t>(v)] = 1;
      queue.push_back(v);
    }
  }
  index_t end_row = kUnmatched;
  while (!queue.empty() && end_row == kUnmatched) {
    const index_t v = queue.front();
    queue.pop_front();
    for (index_t u : g.col_neighbors(v)) {
      const auto uz = static_cast<std::size_t>(u);
      if (parent_row[uz] != kUnmatched) continue;
      parent_row[uz] = v;
      const index_t w = st.mu_row.load(uz);
      if (w == kUnmatched) {
        end_row = u;
        break;
      }
      if (!col_seen[static_cast<std::size_t>(w)]) {
        col_seen[static_cast<std::size_t>(w)] = 1;
        queue.push_back(w);
      }
    }
  }
  if (end_row == kUnmatched) return false;
  index_t u = end_row;
  while (true) {
    const index_t v = parent_row[static_cast<std::size_t>(u)];
    const index_t prev_u = st.mu_col.load(static_cast<std::size_t>(v));
    st.mu_row.store(static_cast<std::size_t>(u), v);
    st.mu_col.store(static_cast<std::size_t>(v), u);
    if (prev_u == kUnmatched) break;
    u = prev_u;
  }
  return true;
}

}  // namespace

GhkResult g_hk(device::Device& dev, const BipartiteGraph& g,
               const matching::ValidMatching& init,
               const GhkOptions& options) {
  GhkResult result;
  GhkStats& stats = result.stats;

  HkDeviceState st(g.num_rows(), g.num_cols());
  st.mu_row.assign_from(init.get().row_match);
  st.mu_col.assign_from(init.get().col_match);

  const std::int64_t max_phases = 4 * static_cast<std::int64_t>(g.num_cols()) + 64;
  while (bfs_levels(dev, g, st, stats)) {
    ++stats.phases;
    const std::int64_t augmented =
        augment_pass(dev, g, st, /*restrict_levels=*/true);
    stats.augmentations += augmented;
    if (augmented == 0) {
      // All found paths were invalidated by claim collisions; force one
      // augmentation so phases always progress (BFS said one exists).
      if (!host_augment_once(g, st))
        throw std::logic_error("g_hk: BFS found a path but none applied");
      ++stats.sequential_fallbacks;
      ++stats.augmentations;
    }
    if (options.duff_wiberg)
      stats.dw_augmentations +=
          augment_pass(dev, g, st, /*restrict_levels=*/false);
    if (stats.phases > max_phases)
      throw std::runtime_error("g_hk: phase bound exceeded");
  }

  result.matching.row_match = st.mu_row.to_host();
  result.matching.col_match = st.mu_col.to_host();
  return result;
}

}  // namespace bpm::gpu
