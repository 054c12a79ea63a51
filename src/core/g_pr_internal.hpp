#pragma once

// Shared internals of the G-PR drivers (core/g_pr.cpp): the activity
// test, the Γ(v) argmin scan, the SHRKRNL-shaped stream compaction and
// the relabel scheduler.
// Internal header — nothing here is part of the public solver surface.

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/g_gr.hpp"
#include "core/options.hpp"
#include "core/relabel_policy.hpp"
#include "core/stats.hpp"
#include "device/device.hpp"
#include "device/mem.hpp"
#include "matching/matching.hpp"
#include "obs/trace.hpp"
#include "util/timer.hpp"

namespace bpm::gpu::detail {

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

inline MinScan scan_min_row(const BipartiteGraph& g, const DeviceState& st,
                            index_t v, index_t psi_v, index_t psi_inf) {
  MinScan r{psi_inf, kUnmatched, 0};
  for (const index_t u : g.col_neighbors(v)) {
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

/// G-PR-SHRKRNL's stream-compaction shape (paper §III-C2): per-worker
/// survivor counting into cache-line-padded tallies, a serial prefix over
/// the (tiny) worker counts, then per-worker writes into private output
/// regions.
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
