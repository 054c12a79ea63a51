#include "core/g_gr.hpp"

namespace bpm::gpu {

namespace {

/// G-GR-KRNL: one launch per BFS level over the given label arrays.  Every
/// row at `c_level` relaxes its unvisited column neighbours to c_level+1
/// and their consistently matched rows (µ(v) > −1 and µ(µ(v)) = v) to
/// c_level+2.  The returned work units (frontier adjacency entries) feed
/// the device time model.  Returns true when a row joined the next level.
bool gr_level(device::Device& dev, const BipartiteGraph& g, index_t c_level,
              const device::relaxed_vector<index_t>& mu_row,
              const device::relaxed_vector<index_t>& mu_col,
              device::relaxed_vector<index_t>& psi_row,
              device::relaxed_vector<index_t>& psi_col) {
  const index_t psi_inf = g.psi_infinity();
  device::device_flag u_added;
  dev.launch_accounted(g.num_rows(), [&](std::int64_t i) -> std::int64_t {
    const auto u = static_cast<std::size_t>(i);
    if (psi_row.load(u) != c_level) return 0;
    for (index_t v : g.row_neighbors(static_cast<index_t>(i))) {
      const auto vz = static_cast<std::size_t>(v);
      if (psi_col.load(vz) != psi_inf) continue;
      psi_col.store(vz, c_level + 1);
      const index_t w = mu_col.load(vz);
      if (w > -1 && mu_row.load(static_cast<std::size_t>(w)) == v) {
        psi_row.store(static_cast<std::size_t>(w), c_level + 2);
        u_added.raise();
      }
    }
    return g.row_degree(static_cast<index_t>(i));
  });
  return u_added.is_raised();
}

}  // namespace

GrResult g_gr(device::Device& dev, const BipartiteGraph& g, DeviceState& st) {
  const index_t psi_inf = g.psi_infinity();

  // INITRELABEL: unmatched rows are BFS sources at level 0.
  dev.launch(g.num_rows(), [&](std::int64_t i) {
    const auto u = static_cast<std::size_t>(i);
    st.psi_row.store(u, st.mu_row.load(u) == -1 ? 0 : psi_inf);
  });
  dev.launch(g.num_cols(), [&](std::int64_t i) {
    st.psi_col.store(static_cast<std::size_t>(i), psi_inf);
  });

  GrResult result;
  index_t c_level = 0;
  bool added = true;
  while (added) {
    added = gr_level(dev, g, c_level, st.mu_row, st.mu_col, st.psi_row,
                     st.psi_col);
    ++result.level_kernels;
    c_level += 2;
  }
  result.max_level = c_level;
  return result;
}

AsyncGlobalRelabel::AsyncGlobalRelabel(index_t num_rows, index_t num_cols)
    : mu_row_snap_(static_cast<std::size_t>(num_rows), -1),
      mu_col_snap_(static_cast<std::size_t>(num_cols), -1),
      psi_row_shadow_(static_cast<std::size_t>(num_rows), 0),
      psi_col_shadow_(static_cast<std::size_t>(num_cols), 0) {}

void AsyncGlobalRelabel::start(device::Device& dev, const BipartiteGraph& g,
                               const DeviceState& st) {
  const index_t psi_inf = g.psi_infinity();
  // Snapshot µ and run INITRELABEL against the snapshot in one pass.
  dev.launch(g.num_rows(), [&](std::int64_t i) {
    const auto u = static_cast<std::size_t>(i);
    const index_t mu = st.mu_row.load(u);
    mu_row_snap_.store(u, mu);
    psi_row_shadow_.store(u, mu == -1 ? 0 : psi_inf);
  });
  dev.launch(g.num_cols(), [&](std::int64_t i) {
    const auto v = static_cast<std::size_t>(i);
    mu_col_snap_.store(v, st.mu_col.load(v));
    psi_col_shadow_.store(v, psi_inf);
  });
  c_level_ = 0;
  running_ = true;
}

bool AsyncGlobalRelabel::step(device::Device& dev, const BipartiteGraph& g) {
  const bool added = gr_level(dev, g, c_level_, mu_row_snap_, mu_col_snap_,
                              psi_row_shadow_, psi_col_shadow_);
  c_level_ += 2;
  if (!added) {
    running_ = false;
    return true;
  }
  return false;
}

void AsyncGlobalRelabel::apply(device::Device& dev, const BipartiteGraph& g,
                               DeviceState& st) {
  dev.launch(g.num_rows(), [&](std::int64_t i) {
    const auto u = static_cast<std::size_t>(i);
    st.psi_row.store(u, psi_row_shadow_.load(u));
  });
  dev.launch(g.num_cols(), [&](std::int64_t i) {
    const auto v = static_cast<std::size_t>(i);
    st.psi_col.store(v, psi_col_shadow_.load(v));
  });
}

}  // namespace bpm::gpu
