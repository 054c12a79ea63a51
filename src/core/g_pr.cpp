#include "core/g_pr.hpp"

#include <utility>
#include <vector>

#include "core/g_pr_internal.hpp"
#include "device/scan.hpp"
#include "util/timer.hpp"

namespace bpm::gpu {

namespace {

using matching::kUnmatchable;
using matching::kUnmatched;

using detail::compact_survivors;
using detail::is_active_column;
using detail::loop_bound;
using detail::loop_bound_exceeded;
using detail::MinScan;
using detail::RelabelScheduler;
using detail::scan_min_row;

/// Variant kFirst — Algorithm 6 driven by Algorithm 3.
void run_first(device::Device& dev, const BipartiteGraph& g, DeviceState& st,
               const GprOptions& options, GprStats& stats,
               GprObserver* observer) {
  const index_t psi_inf = g.psi_infinity();
  const std::int64_t max_loops = loop_bound(g, options);
  std::int64_t loop = 0;
  RelabelScheduler relabels(options);
  device::device_flag act_exists;
  Timer timer;

  bool active = true;
  while (active) {
    (void)relabels.on_loop(dev, g, st, loop, stats, timer);

    act_exists.reset();
    auto push_sp = obs::span(dev.tracer(), "push", "phase");
    if (push_sp) push_sp.arg("loop", loop);
    timer.restart();
    // G-PR-KRNL: one logical thread per column.  Work units model
    // uncoalesced gathers: the µ(µ(v)) activity probe costs one for every
    // matched column — the dead-thread cost the active-list variants
    // remove (paper §III-C, "decreased the divergence of the GPU
    // threads") — plus the Γ(v) scan and the scattered push writes.
    dev.launch_accounted(g.num_cols(), [&](std::int64_t i) -> std::int64_t {
      const auto v = static_cast<index_t>(i);
      const index_t mu_v = st.mu_col.load(static_cast<std::size_t>(v));
      std::int64_t work = mu_v >= 0 ? 1 : 0;  // µ(µ(v)) gather
      const bool active =
          mu_v == kUnmatched ||
          (mu_v >= 0 &&
           st.mu_row.load(static_cast<std::size_t>(mu_v)) != v);
      if (!active) return work;
      act_exists.raise();
      const index_t psi_v = st.psi_col.load(static_cast<std::size_t>(v));
      const MinScan r = scan_min_row(g, st, v, psi_v, psi_inf);
      work += r.scanned;
      if (r.psi_min < psi_inf) {
        st.mu_row.store(static_cast<std::size_t>(r.u_min), v);
        st.mu_col.store(static_cast<std::size_t>(v), r.u_min);
        st.psi_col.store(static_cast<std::size_t>(v), r.psi_min + 1);
        st.psi_row.store(static_cast<std::size_t>(r.u_min), r.psi_min + 2);
        work += 2;  // scattered µ(u), ψ(u) writes
      } else {
        st.mu_col.store(static_cast<std::size_t>(v), kUnmatchable);
      }
      return work;
    });
    push_sp.end();
    stats.push_ms += timer.elapsed_ms();
    active = act_exists.is_raised();
    if (observer) observer->on_loop_end(loop, st);
    if (++loop > max_loops) loop_bound_exceeded();
  }
  stats.loops = loop;
}

/// Variants kNoShrink / kShrink — Algorithms 7–9 — and, when `balanced`,
/// the workload-balanced schedule of every variant (GprOptions::balance,
/// solver `g-pr-wb`, after Hsieh et al., arXiv:2404.00270).
///
/// The balanced schedule keeps the rules of Algorithms 7–9 (the same
/// resolve/roll-back and the same iA conflict stamps, so their termination
/// and maximality arguments carry over) and changes only when the list is
/// compacted and how the push is launched:
///
///  * the list is compacted every loop, not just after a global relabel,
///    so the push never visits a dead slot, and the compaction also emits
///    each survivor's degree;
///  * the degree prefix sum (device::balanced_offsets) feeds
///    Device::launch_balanced, which splits the list's *edges* rather than
///    its columns into equal chunks, so a hub column no longer serializes
///    a chunk that also holds an equal share of everything else.  A single
///    column is never split: one hub whose degree exceeds a chunk's share
///    still bounds its launch.
void run_active_list(device::Device& dev, const BipartiteGraph& g,
                     DeviceState& st, const GprOptions& options,
                     bool balanced, GprStats& stats, GprObserver* observer) {
  const index_t psi_inf = g.psi_infinity();
  const std::int64_t max_loops = loop_bound(g, options);
  const bool with_shrink = options.variant == GprVariant::kShrink;

  // Both buffers start as the unmatched-column list (paper §III-C1).
  std::vector<index_t> initial;
  for (index_t v = 0; v < g.num_cols(); ++v)
    if (st.mu_col.load(static_cast<std::size_t>(v)) == kUnmatched)
      initial.push_back(v);

  device::relaxed_vector<index_t> ac, ap;
  ac.assign_from(initial);
  ap.assign_from(initial);
  device::relaxed_vector<index_t> i_a(static_cast<std::size_t>(g.num_cols()),
                                      -1);
  auto len = static_cast<std::int64_t>(initial.size());
  // Balanced only: the compacted list's column degrees, slot-parallel with
  // Ac.  Each slot has one writer per launch; the barrier publishes it.
  std::vector<std::int64_t> degree;

  std::int64_t loop = 0;
  RelabelScheduler relabels(options);
  bool shrink = false;
  device::device_flag act_exists;
  Timer timer;

  bool active = len > 0;
  while (active) {
    if (relabels.on_loop(dev, g, st, loop, stats, timer)) shrink = true;

    act_exists.reset();
    const auto loop_stamp = static_cast<index_t>(loop);
    timer.restart();

    if (balanced ||
        (with_shrink && shrink && len >= options.shrink_threshold)) {
      // G-PR-SHRKRNL: resolve (roll back conflicts) and compact via the
      // shared two-pass stream compaction (paper §III-C2).
      auto shrink_sp = obs::span(dev.tracer(), "frontier-compaction", "phase");
      if (shrink_sp) shrink_sp.arg("loop", loop);
      device::relaxed_vector<index_t> compacted;
      const std::int64_t total = compact_survivors(
          dev, len,
          [&](std::int64_t i) -> index_t {
            const index_t v_prev = ap.load(static_cast<std::size_t>(i));
            if (v_prev != -1 && is_active_column(st, v_prev)) return v_prev;
            return ac.load(static_cast<std::size_t>(i));
          },
          [&](std::int64_t survivors) {
            compacted = device::relaxed_vector<index_t>(
                static_cast<std::size_t>(survivors), -1);
            if (balanced) degree.assign(static_cast<std::size_t>(survivors), 0);
          },
          [&](std::int64_t out, index_t v) {
            compacted.store(static_cast<std::size_t>(out), v);
            i_a.store(static_cast<std::size_t>(v), loop_stamp);
            if (balanced)
              degree[static_cast<std::size_t>(out)] = g.col_degree(v);
          });
      ap = compacted;            // PUSH leaves forbidden slots untouched in
      ac = std::move(compacted);  // Ap; seeding both with v keeps the
                                  // roll-back path identical to INITKRNL's.
      // Model cost: two resolve passes (one µ(µ) gather per slot each)
      // plus the scattered iA stamps of the survivors; balanced, also the
      // two CSR-bound gathers behind each survivor's degree.
      dev.charge_work(2 * len + (balanced ? 3 : 1) * total);
      if (shrink_sp) shrink_sp.arg("survivors", total);
      len = total;
      if (len > 0) act_exists.raise();
      ++stats.shrinks;
      shrink = false;
    } else {
      // G-PR-INITKRNL (Algorithm 8): detect conflicts from the previous
      // push kernel, roll the losers back into Ac, and stamp iA for every
      // column that is active in this iteration.
      dev.launch_accounted(len, [&](std::int64_t i) -> std::int64_t {
        const auto iz = static_cast<std::size_t>(i);
        std::int64_t work = 0;
        const index_t v_prev = ap.load(iz);
        if (v_prev != -1) {
          ++work;  // µ(µ(v)) activity gather
          if (is_active_column(st, v_prev)) ac.store(iz, v_prev);  // roll back
        }
        const index_t v = ac.load(iz);
        if (v != -1) {
          i_a.store(static_cast<std::size_t>(v), loop_stamp);
          ++work;  // scattered iA stamp
          act_exists.raise();
        }
        return work;
      });
    }

    active = act_exists.is_raised();
    if (active) {
      // G-PR-PUSHKRNL (Algorithm 9).
      auto push_sp = obs::span(dev.tracer(), "push", "phase");
      if (push_sp) {
        push_sp.arg("loop", loop);
        push_sp.arg("active", len);
      }
      const auto push = [&](std::int64_t i) -> std::int64_t {
        const auto iz = static_cast<std::size_t>(i);
        const index_t v = ac.load(iz);
        if (v == -1) {
          ap.store(iz, -1);
          return 0;
        }
        const index_t psi_v = st.psi_col.load(static_cast<std::size_t>(v));
        const MinScan r = scan_min_row(g, st, v, psi_v, psi_inf);
        if (r.psi_min >= psi_inf) {
          st.mu_col.store(static_cast<std::size_t>(v), kUnmatchable);
          ac.store(iz, -1);  // v retired
          ap.store(iz, -1);
          return r.scanned;
        }
        // Capture the displaced column *before* overwriting µ(u); w == −1
        // encodes a single push.
        const index_t w = st.mu_row.load(static_cast<std::size_t>(r.u_min));
        if (w != kUnmatched &&
            i_a.load(static_cast<std::size_t>(w)) == loop_stamp) {
          // µ(u)'s holder is active this loop — pushing would let one
          // column enter the list twice (paper §III-C1).  A blocked push
          // leaves Ap(i) alone; the next INITKRNL or compaction rolls v
          // back.
          return r.scanned + 1;  // µ(u) gather
        }
        st.mu_row.store(static_cast<std::size_t>(r.u_min), v);
        st.mu_col.store(static_cast<std::size_t>(v), r.u_min);
        st.psi_col.store(static_cast<std::size_t>(v), r.psi_min + 1);
        st.psi_row.store(static_cast<std::size_t>(r.u_min), r.psi_min + 2);
        ap.store(iz, w);
        // µ(u) gather, iA(µ(u)) gather, scattered µ(u) and ψ(u) writes.
        return r.scanned + (w == kUnmatched ? 3 : 4);
      };
      if (balanced) {
        const std::vector<std::int64_t> offsets =
            device::balanced_offsets(dev, degree);
        dev.charge_work(2 * len);  // the scan's two passes over the degrees
        dev.launch_balanced(offsets, push);
      } else {
        dev.launch_accounted(len, push);
      }
      ac.swap(ap);  // line 18 of Algorithm 7
    }
    stats.push_ms += timer.elapsed_ms();
    if (observer) observer->on_loop_end(loop, st);
    if (++loop > max_loops) loop_bound_exceeded();
  }
  stats.loops = loop;
}

}  // namespace

GprResult g_pr(device::Device& dev, const BipartiteGraph& g,
               const matching::ValidMatching& init, const GprOptions& options,
               GprObserver* observer) {
  Timer total;
  GprResult result;
  GprStats& stats = result.stats;
  auto solve_sp = obs::span(dev.tracer(), "g-pr", "solve");
  if (solve_sp) {
    solve_sp.arg("rows", static_cast<std::int64_t>(g.num_rows()));
    solve_sp.arg("cols", static_cast<std::int64_t>(g.num_cols()));
  }

  DeviceState st(g.num_rows(), g.num_cols());
  st.mu_row.assign_from(init.get().row_match);
  st.mu_col.assign_from(init.get().col_match);

  bool balanced = options.balance == BalanceMode::kOn;
  if (options.balance == BalanceMode::kAuto) {
    // Degree skew (max/mean) of the initially *unmatched* columns — the
    // columns the push kernels will actually iterate.  One O(n) host
    // pass over the CSR row pointers; the per-loop compaction and degree
    // scan this gates cost more than that every main-loop iteration, so
    // the probe pays for itself immediately.
    const std::vector<graph::offset_t>& col_ptr = g.col_ptr();
    std::int64_t active = 0, edges = 0, max_deg = 0;
    for (index_t v = 0; v < g.num_cols(); ++v) {
      if (init.get().col_match[static_cast<std::size_t>(v)] >= 0) continue;
      const std::int64_t deg = col_ptr[static_cast<std::size_t>(v) + 1] -
                               col_ptr[static_cast<std::size_t>(v)];
      ++active;
      edges += deg;
      max_deg = std::max(max_deg, deg);
    }
    if (active > 0 && edges > 0) {
      stats.balance_skew = static_cast<double>(max_deg) * active /
                           static_cast<double>(edges);
      balanced = stats.balance_skew >= kAutoBalanceSkew;
    }
  }
  stats.balanced = balanced;

  // The balanced schedule subsumes the variant distinction: every
  // variant's push runs over the list compacted each loop.
  if (options.variant == GprVariant::kFirst && !balanced)
    run_first(dev, g, st, options, stats, observer);
  else
    run_active_list(dev, g, st, options, balanced, stats, observer);

  Timer fix;
  {
    auto fix_sp = obs::span(dev.tracer(), "fix-matching", "phase");
    detail::fix_matching(dev, g, st);
  }

  result.matching.row_match = st.mu_row.to_host();
  result.matching.col_match = st.mu_col.to_host();
  stats.fix_ms = fix.elapsed_ms();
  stats.total_ms = total.elapsed_ms();
  return result;
}

}  // namespace bpm::gpu
