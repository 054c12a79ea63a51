#pragma once

#include <cstdint>

#include "device/device.hpp"
#include "device/mem.hpp"
#include "graph/bipartite_graph.hpp"

namespace bpm::gpu {

using graph::BipartiteGraph;
using graph::index_t;

/// Device-resident matching + label state shared by all GPU kernels.
/// Rows are authoritative for µ; column entries may be stale (the paper's
/// matching invariant).  All cells are benign-race memory (device::mem).
struct DeviceState {
  device::relaxed_vector<index_t> mu_row;   ///< µ over V_R: −1 or column id
  device::relaxed_vector<index_t> mu_col;   ///< µ over V_C: −1, −2, or row id
  device::relaxed_vector<index_t> psi_row;  ///< ψ over V_R
  device::relaxed_vector<index_t> psi_col;  ///< ψ over V_C

  DeviceState(index_t num_rows, index_t num_cols)
      : mu_row(static_cast<std::size_t>(num_rows), -1),
        mu_col(static_cast<std::size_t>(num_cols), -1),
        psi_row(static_cast<std::size_t>(num_rows), 0),
        psi_col(static_cast<std::size_t>(num_cols), 1) {}
};

/// Outcome of one G-GR invocation.
struct GrResult {
  index_t max_level = 0;     ///< cLevel after the BFS drained (Alg 4 line 8)
  std::int64_t level_kernels = 0;  ///< number of G-GR-KRNL launches
  std::int64_t reached = 0;  ///< rows over all level frontiers (sources too)
};

/// G-GR (Algorithms 4–5): GPU global relabeling.
///
/// INITRELABEL sets ψ(u) = 0 for unmatched rows and ψ = m+n everywhere
/// else, collecting the unmatched rows as the level-0 frontier in the same
/// pass.  A level-synchronous BFS then runs one G-GR-KRNL launch per
/// level, over that level's frontier only: each frontier row relaxes its
/// unvisited column neighbors to cLevel+1 and their *consistently* matched
/// rows (µ(v) > −1 and µ(µ(v)) = v) to cLevel+2, which form the next
/// frontier.  Each worker appends to its own output, concatenated between
/// launches, so one relabel costs O(V+E) rather than O(levels × rows).
/// Concurrent writes to the same ψ cell all carry the same value — the
/// benign race the paper notes — and a row appended twice by such a race
/// only repeats those stores.  The loop ends after the first level that
/// labels no row, so `level_kernels` and `max_level` count that level too.
///
/// Vertices the BFS never reaches keep ψ = m+n and drop out of further
/// consideration (this is also where the gap heuristic's effect shows up
/// on the GPU: everything beyond the last populated level is retired).
GrResult g_gr(device::Device& dev, const BipartiteGraph& g, DeviceState& st);

}  // namespace bpm::gpu
