#pragma once

// Shared internals of the G-PR drivers (core/g_pr.cpp): the activity
// test, the Γ(v) argmin scan, the SHRKRNL-shaped stream compaction, the
// relabel scheduler, PUSHKRNL's write phase, and the edge-balanced push.
// Internal header — nothing here is part of the public solver surface.

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/g_gr.hpp"
#include "core/options.hpp"
#include "core/relabel_policy.hpp"
#include "core/stats.hpp"
#include "device/device.hpp"
#include "device/mem.hpp"
#include "device/scan.hpp"
#include "matching/matching.hpp"
#include "obs/trace.hpp"
#include "util/timer.hpp"

namespace bpm::gpu::detail {

using matching::kUnmatchable;
using matching::kUnmatched;

/// The matching invariant's activity test: a column is
/// active iff it is unmatched or its match was stolen.  Only evaluated by
/// the thread owning v (within kernels) or between launches, so its two
/// loads cannot race with this thread's own writes.
inline bool is_active_column(const DeviceState& st, index_t v) {
  const index_t mu_v = st.mu_col.load(static_cast<std::size_t>(v));
  if (mu_v == kUnmatched) return true;
  if (mu_v < 0) return false;  // kUnmatchable
  return st.mu_row.load(static_cast<std::size_t>(mu_v)) != v;
}

/// Γ(v) scan of every push kernel: the minimum-ψ row, with the paper's
/// early exit at the infimum ψ(v) − 1 (neighborhood invariant).
struct MinScan {
  index_t psi_min;
  index_t u_min;
  std::int64_t scanned;  ///< adjacency entries inspected (device model work)
};

/// Flat-slice form: scans `adj[0, degree)` directly.  The balanced
/// frontier caches each active column's CSR slice start so its push
/// kernel reads the adjacency without resolving `col_ptr` again.
inline MinScan scan_min_row(const index_t* adj, std::int64_t degree,
                            const DeviceState& st, index_t psi_v,
                            index_t psi_inf) {
  MinScan r{psi_inf, kUnmatched, 0};
  for (std::int64_t e = 0; e < degree; ++e) {
    const index_t u = adj[e];
    ++r.scanned;
    const index_t pu = st.psi_row.load(static_cast<std::size_t>(u));
    if (pu < r.psi_min) {
      r.psi_min = pu;
      r.u_min = u;
      if (r.psi_min == psi_v - 1) break;
    }
  }
  return r;
}

inline MinScan scan_min_row(const BipartiteGraph& g, const DeviceState& st,
                            index_t v, index_t psi_v, index_t psi_inf) {
  const std::span<const index_t> nb = g.col_neighbors(v);
  return scan_min_row(nb.data(), static_cast<std::int64_t>(nb.size()), st,
                      psi_v, psi_inf);
}

/// G-PR-SHRKRNL's stream-compaction shape, shared by the shrink driver and
/// the balanced frontier (paper §III-C2): per-worker survivor counting
/// into cache-line-padded tallies, a serial prefix over the (tiny) worker
/// counts, then per-worker writes into private output regions.
/// `resolve(i)` names slot i's surviving column or −1; `prepare(total)`
/// sizes the outputs between the passes; `emit(out, v)` stores survivor
/// `v` at dense index `out` (each index written by exactly one worker).
/// Returns the survivor count.  Two `launch_chunked` launches; the model
/// work is charged by the caller.
template <typename Resolve, typename Prepare, typename Emit>
std::int64_t compact_survivors(device::Device& dev, std::int64_t len,
                               Resolve&& resolve, Prepare&& prepare,
                               Emit&& emit) {
  std::vector<device::PaddedCount> tallies(dev.num_workers());
  dev.launch_chunked(len, [&](unsigned w, std::int64_t begin,
                              std::int64_t end) {
    std::int64_t count = 0;
    for (std::int64_t i = begin; i < end; ++i)
      if (resolve(i) != -1) ++count;
    tallies[w].value = count;
  });
  std::vector<std::int64_t> counts(dev.num_workers() + 1, 0);
  for (std::size_t w = 0; w < tallies.size(); ++w)
    counts[w + 1] = counts[w] + tallies[w].value;
  prepare(counts.back());
  dev.launch_chunked(len, [&](unsigned w, std::int64_t begin,
                              std::int64_t end) {
    std::int64_t out = counts[w];
    for (std::int64_t i = begin; i < end; ++i) {
      const index_t v = resolve(i);
      if (v != -1) emit(out++, v);
    }
  });
  return counts.back();
}

inline std::int64_t loop_bound(const BipartiteGraph& g,
                               const GprOptions& options) {
  if (options.max_loops == 0) return INT64_MAX;
  if (options.max_loops > 0) return options.max_loops;
  return 64 * static_cast<std::int64_t>(g.psi_infinity()) + 1024;
}

[[noreturn]] inline void loop_bound_exceeded() {
  throw std::runtime_error(
      "g_pr: loop bound exceeded (GprOptions::max_loops) — termination "
      "regression");
}

/// Schedules the synchronous global relabels of every driver: one G-GR
/// call whenever the loop counter reaches iterGR (loop 0 with
/// options.initial_global_relabel), the next iterGR following the
/// relabel strategy.  Returns true when fresh labels were published this
/// loop (the active-list driver uses that as its shrink trigger).
class RelabelScheduler {
 public:
  explicit RelabelScheduler(const GprOptions& options) : options_(options) {
    iter_gr_ = options.initial_global_relabel
                   ? 0
                   : next_global_relabel_loop(options, /*max_level=*/8, 0);
  }

  bool on_loop(device::Device& dev, const BipartiteGraph& g, DeviceState& st,
               std::int64_t loop, GprStats& stats, Timer& timer) {
    if (loop != iter_gr_) return false;
    auto sp = obs::span(dev.tracer(), "global-relabel", "phase");
    if (sp) sp.arg("loop", loop);
    timer.restart();
    const GrResult gr = g_gr(dev, g, st);
    stats.gr_ms += timer.elapsed_ms();
    if (sp) {
      sp.arg("levels", gr.level_kernels);
      sp.arg("reached", gr.reached);
    }
    ++stats.global_relabels;
    stats.gr_level_kernels += gr.level_kernels;
    iter_gr_ = next_global_relabel_loop(options_, gr.max_level, loop);
    return true;
  }

 private:
  const GprOptions& options_;
  std::int64_t iter_gr_ = 0;
};

/// Dense active-column frontier SoA (the compaction output the balanced
/// push consumes): column ids, cached ψ, flat CSR slice starts, degrees.
struct BalancedFrontier {
  std::vector<index_t> cols, psi;
  std::vector<graph::offset_t> adj_begin;
  std::vector<std::int64_t> degree;

  [[nodiscard]] std::int64_t size() const {
    return static_cast<std::int64_t>(cols.size());
  }
  void resize_for(std::int64_t survivors) {
    const auto sz = static_cast<std::size_t>(survivors);
    cols.assign(sz, -1);
    psi.assign(sz, 0);
    adj_begin.assign(sz, 0);
    degree.assign(sz, 0);
  }
  void swap(BalancedFrontier& other) noexcept {
    cols.swap(other.cols);
    psi.swap(other.psi);
    adj_begin.swap(other.adj_begin);
    degree.swap(other.degree);
  }
};

/// What PUSHKRNL's write phase did for one pusher.
struct PushOutcome {
  std::int64_t work;  ///< model work units of the write phase
  bool pushed;        ///< µ(u) ← v landed (false: blocked or retired)
  index_t displaced;  ///< the captured double-push column; −1 for a single
                      ///< push or when nothing was pushed
};

/// PUSHKRNL's write phase, shared by the active-list and balanced
/// drivers: given column v's scanned minimum, perform the single/double
/// push (guarded by the iA conflict stamp) or retire v.  The caller owns
/// its slot rules: a blocked pusher leaves its slots alone, a pushed one
/// records `displaced`, a retired one (r.psi_min == ψ∞) clears them.
inline PushOutcome apply_push(DeviceState& st,
                              const device::relaxed_vector<index_t>& i_a,
                              index_t loop_stamp, index_t psi_inf, index_t v,
                              const MinScan& r) {
  PushOutcome out{0, false, kUnmatched};
  if (r.psi_min < psi_inf) {
    // Capture the displaced column *before* overwriting µ(u); w == −1
    // encodes a single push.
    const index_t w = st.mu_row.load(static_cast<std::size_t>(r.u_min));
    ++out.work;  // µ(u) gather
    if (w == kUnmatched ||
        i_a.load(static_cast<std::size_t>(w)) != loop_stamp) {
      if (w != kUnmatched) ++out.work;  // iA(µ(u)) gather
      st.mu_row.store(static_cast<std::size_t>(r.u_min), v);
      st.mu_col.store(static_cast<std::size_t>(v), r.u_min);
      st.psi_col.store(static_cast<std::size_t>(v), r.psi_min + 1);
      st.psi_row.store(static_cast<std::size_t>(r.u_min), r.psi_min + 2);
      out.pushed = true;
      out.displaced = w;
      out.work += 2;  // scattered µ(u), ψ(u) writes
    }
    // else: µ(u)'s holder is active this loop — pushing would let one
    // column enter the frontier twice (paper §III-C1).  The pusher stays
    // active, so the next roll-back or compaction restores it.
  } else {
    st.mu_col.store(static_cast<std::size_t>(v), kUnmatchable);
  }
  return out;
}

/// One edge-balanced push over the frontier (G-PR-PUSHKRNL over the dense
/// SoA): the frontier's degree prefix sum (device scan) feeds one
/// `launch_balanced`, which hands each chunk an equal share of the
/// frontier's edges; every item scans its column's slice and applies
/// `apply_push`.  `displaced[i]` is the slot-parallel output over frontier
/// items: the captured column of a landed push, untouched otherwise.
/// Charges the scan passes to the model.
inline void balanced_push(device::Device& dev, const index_t* col_adj,
                          DeviceState& st, const BalancedFrontier& f,
                          const device::relaxed_vector<index_t>& i_a,
                          index_t loop_stamp, index_t psi_inf,
                          std::vector<index_t>& displaced) {
  const std::int64_t n = f.size();
  if (n == 0) return;

  const std::vector<std::int64_t> offsets =
      device::balanced_offsets(dev, f.degree);
  dev.charge_work(2 * n);  // the scan's two passes over the degrees
  dev.launch_balanced(offsets, [&](std::int64_t i) -> std::int64_t {
    const auto iz = static_cast<std::size_t>(i);
    const MinScan r = scan_min_row(col_adj + f.adj_begin[iz], f.degree[iz],
                                   st, f.psi[iz], psi_inf);
    const PushOutcome p =
        apply_push(st, i_a, loop_stamp, psi_inf, f.cols[iz], r);
    if (p.pushed) displaced[iz] = p.displaced;
    return r.scanned + p.work;
  });
}

/// FIXMATCHING: repair the benign column-side inconsistencies; row
/// matchings are authoritative and already correct.
inline void fix_matching(device::Device& dev, const BipartiteGraph& g,
                         DeviceState& st) {
  dev.launch_accounted(g.num_cols(), [&](std::int64_t i) -> std::int64_t {
    const auto vz = static_cast<std::size_t>(i);
    const index_t u = st.mu_col.load(vz);
    if (u < 0) {
      st.mu_col.store(vz, kUnmatched);
      return 0;
    }
    if (st.mu_row.load(static_cast<std::size_t>(u)) !=
        static_cast<index_t>(i)) {
      st.mu_col.store(vz, kUnmatched);
    }
    return 1;  // µ(µ(v)) gather
  });
}

}  // namespace bpm::gpu::detail
