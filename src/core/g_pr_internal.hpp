#pragma once

// Shared internals of the G-PR drivers (core/g_pr.cpp): the activity
// test, the Γ(v) argmin scan, the SHRKRNL-shaped stream compaction, the
// relabel scheduler, and the edge-balanced push with intra-item
// min-combine.  Internal header — nothing here is part of the public
// solver surface.

#include <cstdint>
#include <span>
#include <stdexcept>
#include <utility>
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

/// The matching invariant's activity test (DESIGN.md D3): a column is
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
/// kernel reads the adjacency without resolving `col_ptr` again; the
/// intra-item min-combine scans sub-slices of one column with it.
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
      "g_pr: loop bound exceeded — termination regression (see DESIGN.md D8)");
}

/// Schedules global relabels for both drivers: synchronous G-GR calls, or
/// — with options.concurrent_global_relabel — the stream-overlapped
/// shadow relabel for every non-initial one (the initial relabel stays
/// synchronous; the paper found exact labels before the first push kernel
/// critical).  Returns true when fresh labels were published this loop
/// (the active-list driver uses that as its shrink trigger).
class RelabelScheduler {
 public:
  RelabelScheduler(const BipartiteGraph& g, const GprOptions& options)
      : options_(options), async_(g.num_rows(), g.num_cols()) {
    iter_gr_ = options.initial_global_relabel
                   ? 0
                   : next_global_relabel_loop(options, /*max_level=*/8, 0);
  }

  bool on_loop(device::Device& dev, const BipartiteGraph& g, DeviceState& st,
               std::int64_t loop, GprStats& stats, Timer& timer) {
    bool published = false;
    const bool overlap =
        options_.concurrent_global_relabel && stats.global_relabels > 0;
    if (!overlap) {
      if (loop == iter_gr_) {
        auto sp = obs::span(dev.tracer(), "global-relabel", "phase");
        if (sp) sp.arg("loop", loop);
        timer.restart();
        const GrResult gr = g_gr(dev, g, st);
        stats.gr_ms += timer.elapsed_ms();
        ++stats.global_relabels;
        stats.gr_level_kernels += gr.level_kernels;
        max_level_ = gr.max_level;
        stats.last_max_level = max_level_;
        iter_gr_ = next_global_relabel_loop(options_, max_level_, loop);
        published = true;
      }
      return published;
    }
    timer.restart();
    if (loop >= iter_gr_ && !async_.running()) {
      if (dirty_completions_ >= kMaxDirtyRetries) {
        // Contention keeps invalidating the snapshots; pay for one
        // synchronous relabel to guarantee fresh labels.
        auto sp = obs::span(dev.tracer(), "global-relabel", "phase");
        if (sp) {
          sp.arg("loop", loop);
          sp.arg("forced_sync", true);
        }
        const GrResult gr = g_gr(dev, g, st);
        ++stats.global_relabels;
        stats.gr_level_kernels += gr.level_kernels;
        max_level_ = gr.max_level;
        stats.last_max_level = max_level_;
        iter_gr_ = next_global_relabel_loop(options_, max_level_, loop);
        dirty_completions_ = 0;
        stats.gr_ms += timer.elapsed_ms();
        return true;
      }
      st.mu_dirty.reset();
      if (obs::Tracer* tracer = dev.tracer(); tracer && tracer->enabled())
        tracer->instant("global-relabel-async-start", "phase",
                        obs::arg_json("loop", loop));
      async_.start(dev, g, st);
      ++stats.concurrent_relabels;
    }
    if (async_.running()) {
      auto sp = obs::span(dev.tracer(), "global-relabel", "phase");
      if (sp) {
        sp.arg("loop", loop);
        sp.arg("async", true);
      }
      ++stats.gr_level_kernels;
      if (async_.step(dev, g)) {
        if (st.mu_dirty.is_raised()) {
          // Pushes rewired the matching mid-flight: the snapshot labels
          // may over-estimate and must be discarded (see
          // AsyncGlobalRelabel's contract).  Retry with a fresh snapshot
          // on the next loop.
          ++stats.async_discarded;
          ++dirty_completions_;
        } else {
          async_.apply(dev, g, st);
          ++stats.global_relabels;
          max_level_ = async_.max_level();
          stats.last_max_level = max_level_;
          iter_gr_ = next_global_relabel_loop(options_, max_level_, loop);
          dirty_completions_ = 0;
          published = true;
        }
      }
    }
    stats.gr_ms += timer.elapsed_ms();
    return published;
  }

 private:
  static constexpr int kMaxDirtyRetries = 2;

  const GprOptions& options_;
  AsyncGlobalRelabel async_;
  std::int64_t iter_gr_ = 0;
  index_t max_level_ = 0;
  int dirty_completions_ = 0;
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

/// PUSHKRNL's write phase, shared by the in-kernel path and the deferred
/// intra-item-combine path: given column v's scanned minimum, perform the
/// single/double push (guarded by the iA conflict stamp) or retire v.
/// `displaced_slot` receives the captured double-push column (−1 for a
/// single push, untouched when the push is blocked).  Returns model work
/// units.
inline std::int64_t apply_push(DeviceState& st,
                               device::relaxed_vector<index_t>& i_a,
                               index_t loop_stamp, index_t psi_inf, index_t v,
                               const MinScan& r, index_t& displaced_slot) {
  std::int64_t work = 0;
  if (r.psi_min < psi_inf) {
    // Capture the displaced column *before* overwriting µ(u)
    // (DESIGN.md D4); w == −1 encodes a single push.
    const index_t w = st.mu_row.load(static_cast<std::size_t>(r.u_min));
    ++work;  // µ(u) gather
    if (w == kUnmatched ||
        i_a.load(static_cast<std::size_t>(w)) != loop_stamp) {
      if (w != kUnmatched) ++work;  // iA(µ(u)) gather
      st.mu_row.store(static_cast<std::size_t>(r.u_min), v);
      st.mu_col.store(static_cast<std::size_t>(v), r.u_min);
      st.psi_col.store(static_cast<std::size_t>(v), r.psi_min + 1);
      st.psi_row.store(static_cast<std::size_t>(r.u_min), r.psi_min + 2);
      st.mu_dirty.raise();
      displaced_slot = w;
      work += 2;  // scattered µ(u), ψ(u) writes
    }
    // else: µ(u)'s holder is active this loop — pushing would let one
    // column enter the frontier twice (paper §III-C1).  The pusher stays
    // active, so the next compaction rolls it back.
  } else {
    st.mu_col.store(static_cast<std::size_t>(v), kUnmatchable);
    // The pusher goes inactive with no displaced column: the slot dies at
    // the next resolve.
  }
  return work;
}

/// The intra-item min-combine's fragment size: `requested` verbatim when
/// positive, 0 (off) when negative, otherwise an even split of the
/// frontier's total edges over the device's parallel lanes (the sim's
/// straggler-model lanes; 4 slots per worker on the host, matching its
/// oversubscription), floored so tiny frontiers never fragment.
inline std::int64_t resolve_split_grain(const device::Device& dev,
                                        std::int64_t requested,
                                        std::int64_t total) {
  if (requested > 0) return requested;
  if (requested < 0) return 0;
  const std::int64_t lanes =
      dev.backend() == device::Backend::kHost
          ? static_cast<std::int64_t>(dev.num_workers()) * 4
          : std::max(dev.model().lanes, 1);
  return std::max<std::int64_t>(total / std::max<std::int64_t>(lanes, 1),
                                512);
}

/// One edge-balanced push over the frontier (G-PR-PUSHKRNL over the dense
/// SoA) with intra-item min-combine: columns whose degree exceeds twice
/// the resolved grain are chopped into ≤ grain-edge fragments that run as
/// independent balanced items, each recording a partial argmin; after the
/// launch barrier the partials of every split column are tree-combined
/// (strict-less, earliest fragment wins ties — the same row a sequential
/// scan of the whole slice picks) and the combined push applied through
/// the identical `apply_push`.  This removes the one-column lower bound
/// on the straggler critical path: no lane — model lane or host slot —
/// ever owns more than ~grain edges of a single column.
///
/// `displaced[i]` is the slot-parallel output over frontier items, exactly
/// as in the unsplit kernel.  Builds the degree prefix sum internally
/// (device scan).  Charges the scan passes and the deferred combine to the
/// model; updates the split counters in `stats`.
inline void balanced_push(device::Device& dev, const index_t* col_adj,
                          DeviceState& st, const BalancedFrontier& f,
                          device::relaxed_vector<index_t>& i_a,
                          index_t loop_stamp, index_t psi_inf,
                          std::int64_t grain_option,
                          std::vector<index_t>& displaced, GprStats& stats) {
  const std::int64_t n = f.size();
  if (n == 0) return;

  const auto full_item = [&](std::int64_t i) -> std::int64_t {
    const auto iz = static_cast<std::size_t>(i);
    const MinScan r = scan_min_row(col_adj + f.adj_begin[iz], f.degree[iz],
                                   st, f.psi[iz], psi_inf);
    return r.scanned +
           apply_push(st, i_a, loop_stamp, psi_inf, f.cols[iz], r,
                      displaced[iz]);
  };

  const std::vector<std::int64_t> offsets =
      device::balanced_offsets(dev, f.degree);
  dev.charge_work(2 * n);  // the scan's two passes over the degrees
  const std::int64_t grain = resolve_split_grain(dev, grain_option,
                                                 offsets.back());

  std::int64_t max_degree = 0;
  for (const std::int64_t d : f.degree) max_degree = std::max(max_degree, d);
  if (grain <= 0 || max_degree <= 2 * grain) {
    dev.launch_balanced(offsets, full_item);
    return;
  }

  // Fragment plan: split items get ceil(degree/grain) pieces, everything
  // else one.  `item_frag_begin` bounds each item's fragment range for
  // the combine pass.
  std::vector<std::int64_t> frag_item, frag_off, frag_work;
  std::vector<std::int64_t> item_frag_begin(static_cast<std::size_t>(n) + 1,
                                            0);
  for (std::int64_t i = 0; i < n; ++i) {
    const auto iz = static_cast<std::size_t>(i);
    item_frag_begin[iz] = static_cast<std::int64_t>(frag_item.size());
    const std::int64_t d = f.degree[iz];
    if (d > 2 * grain) {
      const std::int64_t pieces = (d + grain - 1) / grain;
      for (std::int64_t p = 0; p < pieces; ++p) {
        frag_item.push_back(i);
        frag_off.push_back(p * grain);
        frag_work.push_back(std::min(grain, d - p * grain));
      }
      ++stats.split_items;
      stats.split_fragments += pieces;
    } else {
      frag_item.push_back(i);
      frag_off.push_back(0);
      frag_work.push_back(d);
    }
  }
  item_frag_begin[static_cast<std::size_t>(n)] =
      static_cast<std::int64_t>(frag_item.size());

  // Per-fragment argmin partials.  Slot-parallel (one writer per entry);
  // only split items' entries are read back.  A fragment still early-exits
  // at ψ(v) − 1 within its own slice — the global infimum, so no other
  // fragment could have done better.
  std::vector<MinScan> partials(frag_item.size());
  const std::vector<std::int64_t> frag_offsets =
      device::balanced_offsets(dev, frag_work);
  dev.charge_work(2 * static_cast<std::int64_t>(frag_item.size()));
  dev.launch_balanced(frag_offsets, [&](std::int64_t fi) -> std::int64_t {
    const auto fz = static_cast<std::size_t>(fi);
    const std::int64_t i = frag_item[fz];
    const auto iz = static_cast<std::size_t>(i);
    if (item_frag_begin[iz + 1] - item_frag_begin[iz] == 1)
      return full_item(i);
    const MinScan r =
        scan_min_row(col_adj + f.adj_begin[iz] + frag_off[fz], frag_work[fz],
                     st, f.psi[iz], psi_inf);
    partials[fz] = r;
    return r.scanned;
  });

  // Deferred combine + push for the split items, after the launch
  // barrier.  Host-side and cheap: O(fragments of split items) per loop.
  std::int64_t combine_work = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    const auto iz = static_cast<std::size_t>(i);
    const std::int64_t fb = item_frag_begin[iz];
    const std::int64_t fe = item_frag_begin[iz + 1];
    if (fe - fb == 1) continue;
    MinScan best = partials[static_cast<std::size_t>(fb)];
    for (std::int64_t fi = fb + 1; fi < fe; ++fi) {
      const MinScan& p = partials[static_cast<std::size_t>(fi)];
      if (p.psi_min < best.psi_min) {
        best.psi_min = p.psi_min;
        best.u_min = p.u_min;
      }
    }
    combine_work += fe - fb;
    combine_work += apply_push(st, i_a, loop_stamp, psi_inf, f.cols[iz], best,
                               displaced[iz]);
  }
  dev.charge_work(combine_work);
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
