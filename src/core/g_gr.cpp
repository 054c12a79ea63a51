#include "core/g_gr.hpp"

namespace bpm::gpu {

namespace {

/// G-GR-KRNL: one launch per BFS level.  Every row at `c_level` relaxes
/// its unvisited column neighbours to c_level+1 and their consistently
/// matched rows (µ(v) > −1 and µ(µ(v)) = v) to c_level+2.  The returned
/// work units (frontier adjacency entries) feed the device time model.
/// Returns true when a row joined the next level.
bool gr_level(device::Device& dev, const BipartiteGraph& g, index_t c_level,
              DeviceState& st) {
  const index_t psi_inf = g.psi_infinity();
  device::device_flag u_added;
  dev.launch_accounted(g.num_rows(), [&](std::int64_t i) -> std::int64_t {
    const auto u = static_cast<std::size_t>(i);
    if (st.psi_row.load(u) != c_level) return 0;
    for (index_t v : g.row_neighbors(static_cast<index_t>(i))) {
      const auto vz = static_cast<std::size_t>(v);
      if (st.psi_col.load(vz) != psi_inf) continue;
      st.psi_col.store(vz, c_level + 1);
      const index_t w = st.mu_col.load(vz);
      if (w > -1 && st.mu_row.load(static_cast<std::size_t>(w)) == v) {
        st.psi_row.store(static_cast<std::size_t>(w), c_level + 2);
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
    added = gr_level(dev, g, c_level, st);
    ++result.level_kernels;
    c_level += 2;
  }
  result.max_level = c_level;
  return result;
}

}  // namespace bpm::gpu
