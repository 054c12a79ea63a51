#include "core/g_gr.hpp"

#include <vector>

namespace bpm::gpu {

namespace {

/// One worker's private output of a frontier launch: the rows it labeled
/// for the next level and the adjacency entries it scanned (the sim's
/// model work).  Cache-line aligned so neighbouring workers' appends and
/// tallies never share a line.
struct alignas(64) FrontierOut {
  std::vector<index_t> rows;
  std::int64_t work = 0;
};

/// Concatenates the workers' outputs into `frontier` (replacing it),
/// empties them for the next launch and returns their summed work.  The
/// first output is swapped in rather than copied, so a single-worker
/// device never copies a frontier, and the buffers are reused.
std::int64_t gather(std::vector<FrontierOut>& outs,
                    std::vector<index_t>& frontier) {
  frontier.swap(outs.front().rows);
  outs.front().rows.clear();
  std::int64_t work = 0;
  for (FrontierOut& out : outs) {
    frontier.insert(frontier.end(), out.rows.begin(), out.rows.end());
    out.rows.clear();
    work += out.work;
    out.work = 0;
  }
  return work;
}

}  // namespace

GrResult g_gr(device::Device& dev, const BipartiteGraph& g, DeviceState& st) {
  const index_t psi_inf = g.psi_infinity();
  std::vector<FrontierOut> outs(dev.num_workers());
  std::vector<index_t> frontier;

  // INITRELABEL, fused with collecting the level-0 frontier: unmatched
  // rows are the BFS sources at ψ = 0, every other row starts at ψ∞.
  dev.launch_chunked(g.num_rows(), [&](unsigned slot, std::int64_t begin,
                                       std::int64_t end) {
    std::vector<index_t>& sources = outs[slot].rows;
    for (std::int64_t i = begin; i < end; ++i) {
      const auto u = static_cast<std::size_t>(i);
      const bool unmatched = st.mu_row.load(u) == -1;
      st.psi_row.store(u, unmatched ? 0 : psi_inf);
      if (unmatched) sources.push_back(static_cast<index_t>(i));
    }
  });
  gather(outs, frontier);
  dev.launch(g.num_cols(), [&](std::int64_t i) {
    st.psi_col.store(static_cast<std::size_t>(i), psi_inf);
  });

  // G-GR-KRNL: one launch per BFS level, over that level's frontier only.
  // Two rows racing for one column may both append its mate; the
  // duplicate only repeats identical stores at the next level.
  GrResult result;
  index_t c_level = 0;
  do {
    result.reached += static_cast<std::int64_t>(frontier.size());
    dev.launch_chunked(static_cast<std::int64_t>(frontier.size()),
                       [&](unsigned slot, std::int64_t begin,
                           std::int64_t end) {
      FrontierOut& out = outs[slot];
      std::int64_t work = 0;
      for (std::int64_t i = begin; i < end; ++i) {
        const auto nb = g.row_neighbors(frontier[static_cast<std::size_t>(i)]);
        work += static_cast<std::int64_t>(nb.size());
        for (index_t v : nb) {
          const auto vz = static_cast<std::size_t>(v);
          if (st.psi_col.load(vz) != psi_inf) continue;
          st.psi_col.store(vz, c_level + 1);
          const index_t w = st.mu_col.load(vz);
          if (w > -1 && st.mu_row.load(static_cast<std::size_t>(w)) == v) {
            st.psi_row.store(static_cast<std::size_t>(w), c_level + 2);
            out.rows.push_back(w);
          }
        }
      }
      out.work = work;
    });
    dev.charge_work(gather(outs, frontier));
    ++result.level_kernels;
    c_level += 2;
  } while (!frontier.empty());
  result.max_level = c_level;
  return result;
}

}  // namespace bpm::gpu
