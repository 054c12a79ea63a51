#pragma once

#include <utility>

#include "core/g_gr.hpp"
#include "core/options.hpp"
#include "core/stats.hpp"
#include "device/device.hpp"
#include "matching/matching.hpp"

namespace bpm::gpu {

struct GprResult {
  matching::Matching matching;  ///< consistent, maximum cardinality
  GprStats stats;
};

/// Diagnostic hook observing device state at launch barriers — used by the
/// invariant tests (tests/test_invariants.cpp) to check the paper's
/// neighborhood and matching invariants between kernels.  The state
/// reference is only valid during the call; no kernel is in flight.
class GprObserver {
 public:
  virtual ~GprObserver() = default;
  /// After each main-loop iteration (post push kernel and buffer swap).
  virtual void on_loop_end(std::int64_t loop, const DeviceState& st) = 0;
};

/// G-PR: the paper's GPU push-relabel maximum cardinality bipartite
/// matching (Algorithms 3 and 6–9), executed on the device engine.
///
/// One logical device thread processes one active column per push-kernel
/// launch: it scans Γ(v) for the minimum-ψ row (early exit at ψ(v) − 1),
/// performs the single/double push and the two relabels with plain racy
/// stores, and never takes a lock or an atomic RMW.  Races leave stale
/// column entries in µ that the algorithm detects via µ(µ(v)) ≠ v and
/// repairs at the end (FIXMATCHING).  Periodic global relabeling (G-GR)
/// restores exact labels at a frequency chosen by GETITERGR
/// (core/relabel_policy.hpp).
///
/// Variants (GprOptions::variant):
///  * kFirst    — Algorithm 6, one thread per column of V_C;
///  * kNoShrink — Algorithms 7–9, double-buffered active list Ac/Ap with
///                conflict roll-back and the iA stamp array;
///  * kShrink   — plus prefix-sum compaction of the list after each global
///                relabel while |Ac| ≥ options.shrink_threshold.
///
/// With GprOptions::balance every variant runs the active-list driver's
/// balanced schedule instead: the list is compacted every loop and the
/// push is launched edge-balanced (`g-pr-wb`).
///
/// The paper starts from the cheap greedy matching.  The result is
/// maximum (Berge certificate checked in tests) at any worker count of
/// `dev`.
GprResult g_pr(device::Device& dev, const BipartiteGraph& g,
               const matching::ValidMatching& init,
               const GprOptions& options = {}, GprObserver* observer = nullptr);

/// Proves `init` valid for `g` (`matching::ValidMatching`), then runs from it.
inline GprResult g_pr(device::Device& dev, const BipartiteGraph& g,
                      matching::Matching init, const GprOptions& options = {},
                      GprObserver* observer = nullptr) {
  return g_pr(dev, g, matching::ValidMatching(g, std::move(init)), options,
              observer);
}

}  // namespace bpm::gpu
