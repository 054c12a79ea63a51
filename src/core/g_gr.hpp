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

  /// Raised by every push; the overlapped relabel uses it to decide
  /// whether its snapshot is still exact (AsyncGlobalRelabel docs).
  device::device_flag mu_dirty;

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
};

/// G-GR (Algorithms 4–5): GPU global relabeling.
///
/// INITRELABEL sets ψ(u) = 0 for unmatched rows and ψ = m+n everywhere
/// else; then a level-synchronous BFS from all unmatched rows runs one
/// G-GR-KRNL launch per level: every row u with ψ(u) = cLevel relaxes its
/// unvisited column neighbors to cLevel+1 and their *consistently* matched
/// rows (µ(v) > −1 and µ(µ(v)) = v) to cLevel+2.  Concurrent writes to the
/// same ψ cell all carry the same value — the benign race the paper notes.
///
/// Vertices the BFS never reaches keep ψ = m+n and drop out of further
/// consideration (this is also where the gap heuristic's effect shows up
/// on the GPU: everything beyond the last populated level is retired).
GrResult g_gr(device::Device& dev, const BipartiteGraph& g, DeviceState& st);

/// Stream-overlapped global relabeling — the paper's Section V future
/// work, implemented: "the concurrent execution of global-relabeling and
/// push-relabel kernels … it may be promising to occupy the device with
/// two kernels".
///
/// The relabel runs as a second logical stream: `start()` snapshots µ and
/// initialises a *shadow* ψ; each `step()` advances the BFS by one level
/// kernel (interleaved by the driver with its push kernels, which keep
/// using the current labels); when the BFS drains, the driver may
/// `apply()` the shadow labels — but only if no push landed meanwhile.
///
/// Soundness (and why apply-if-clean is required): the shadow BFS yields
/// exact alternating distances w.r.t. the µ *snapshot*.  Distances are a
/// global property of the matching structure, and double pushes rewire
/// that structure arbitrarily (rows stay matched, but to different
/// columns), so snapshot distances can OVER-estimate distances under the
/// evolved matching — and over-estimated labels can wrongly retire
/// matchable columns (we observed exactly this: a naive wholesale apply
/// loses cardinality on small random graphs).  Incrementally-maintained
/// labels stay valid lower bounds; imported ones are only valid if the
/// matching is unchanged.  Hence the contract: the driver checks
/// `DeviceState::mu_dirty` (raised by every push) over the BFS's
/// lifetime, applies on clean, and discards or falls back to a
/// synchronous relabel on dirty.  Overlapping therefore pays off in
/// low-contention phases — the end-game with few active columns, which is
/// also where relabeling frequency matters most (paper §III-C).
class AsyncGlobalRelabel {
 public:
  AsyncGlobalRelabel(index_t num_rows, index_t num_cols);

  /// Snapshots µ from `st` and initialises the shadow labels (kernels on
  /// `dev`).  Must not be running.
  void start(device::Device& dev, const BipartiteGraph& g,
             const DeviceState& st);

  [[nodiscard]] bool running() const { return running_; }

  /// Runs one shadow BFS level kernel.  Returns true when the BFS just
  /// drained (the relabel is complete and ready to `apply`).
  bool step(device::Device& dev, const BipartiteGraph& g);

  /// Publishes the shadow labels into `st` and leaves the running state.
  void apply(device::Device& dev, const BipartiteGraph& g, DeviceState& st);

  /// maxLevel of the finished BFS (valid after `step` returned true).
  [[nodiscard]] index_t max_level() const { return c_level_; }

 private:
  device::relaxed_vector<index_t> mu_row_snap_;
  device::relaxed_vector<index_t> mu_col_snap_;
  device::relaxed_vector<index_t> psi_row_shadow_;
  device::relaxed_vector<index_t> psi_col_shadow_;
  index_t c_level_ = 0;
  bool running_ = false;
};

}  // namespace bpm::gpu
