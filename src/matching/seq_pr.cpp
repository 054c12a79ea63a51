#include "matching/seq_pr.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <vector>

namespace bpm::matching {

namespace {

/// Shared state of one solver run.
struct PrState {
  const BipartiteGraph& g;
  Matching m;
  std::vector<index_t> psi_row;
  std::vector<index_t> psi_col;
  std::deque<index_t> active;          // FIFO of active columns
  std::vector<index_t> label_count;    // columns per label (gap heuristic)
  index_t gap_threshold;               // labels >= this are unreachable
  index_t psi_inf;

  explicit PrState(const BipartiteGraph& graph, Matching init)
      : g(graph),
        m(std::move(init)),
        psi_row(static_cast<std::size_t>(graph.num_rows()), 0),
        psi_col(static_cast<std::size_t>(graph.num_cols()), 1),
        label_count(static_cast<std::size_t>(graph.psi_infinity()) + 3, 0),
        gap_threshold(std::numeric_limits<index_t>::max()),
        psi_inf(graph.psi_infinity()) {}

  void rebuild_label_counts() {
    std::fill(label_count.begin(), label_count.end(), 0);
    for (index_t v = 0; v < g.num_cols(); ++v) {
      const index_t l = psi_col[static_cast<std::size_t>(v)];
      if (l < psi_inf) ++label_count[static_cast<std::size_t>(l)];
    }
    gap_threshold = std::numeric_limits<index_t>::max();
  }

  /// Move column v from label `from` to label `to`, detecting gaps.  A
  /// move that keeps v's label must not pass through an empty count, or a
  /// column alone at its label would record a gap it never left.
  void move_label(index_t v, index_t from, index_t to) {
    if (from == to) return;
    psi_col[static_cast<std::size_t>(v)] = to;
    if (from < psi_inf) {
      auto& cnt = label_count[static_cast<std::size_t>(from)];
      if (--cnt == 0 && from < gap_threshold) gap_threshold = from;
    }
    if (to < psi_inf) ++label_count[static_cast<std::size_t>(to)];
  }

  /// Whether ψ(v) = `psi_v` lies beyond a label no column holds.  A
  /// recorded gap that a later push has filled again is no gap: forget it.
  bool beyond_gap(index_t psi_v) {
    if (psi_v <= gap_threshold) return false;
    if (label_count[static_cast<std::size_t>(gap_threshold)] != 0) {
      gap_threshold = std::numeric_limits<index_t>::max();
      return false;
    }
    return true;
  }

  /// Algorithm 2 (GR): exact distances via BFS from all unmatched rows.
  /// Runs over the *row* adjacency.  Unreached vertices get ψ = m + n.
  void global_relabel() {
    std::fill(psi_col.begin(), psi_col.end(), psi_inf);
    std::deque<index_t> queue;  // row vertices
    for (index_t u = 0; u < g.num_rows(); ++u) {
      if (m.row_match[static_cast<std::size_t>(u)] == kUnmatched) {
        psi_row[static_cast<std::size_t>(u)] = 0;
        queue.push_back(u);
      } else {
        psi_row[static_cast<std::size_t>(u)] = psi_inf;
      }
    }
    while (!queue.empty()) {
      const index_t u = queue.front();
      queue.pop_front();
      const index_t du = psi_row[static_cast<std::size_t>(u)];
      for (index_t v : g.row_neighbors(u)) {
        if (psi_col[static_cast<std::size_t>(v)] != psi_inf) continue;
        psi_col[static_cast<std::size_t>(v)] = du + 1;
        const index_t w = m.col_match[static_cast<std::size_t>(v)];
        if (w >= 0 && psi_row[static_cast<std::size_t>(w)] == psi_inf) {
          psi_row[static_cast<std::size_t>(w)] = du + 2;
          queue.push_back(w);
        }
      }
    }
    rebuild_label_counts();
  }

  /// Rebuild the FIFO from unmatched columns; drop the ones GR proved
  /// unreachable.
  void rebuild_active() {
    active.clear();
    for (index_t v = 0; v < g.num_cols(); ++v) {
      if (m.col_match[static_cast<std::size_t>(v)] != kUnmatched) continue;
      if (psi_col[static_cast<std::size_t>(v)] >= psi_inf)
        m.col_match[static_cast<std::size_t>(v)] = kUnmatchable;
      else
        active.push_back(v);
    }
  }
};

}  // namespace

Matching seq_push_relabel(const BipartiteGraph& g, const ValidMatching& init,
                          const SeqPrOptions& options, SeqPrStats* stats) {
  SeqPrStats local{};
  if (!stats) stats = &local;

  PrState st(g, init);
  const index_t psi_inf = st.psi_inf;

  const auto gr_interval = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(options.global_relabel_k *
                                   static_cast<double>(psi_inf)));

  if (options.initial_global_relabel) {
    st.global_relabel();
    ++stats->global_relabels;
  } else {
    st.rebuild_label_counts();
  }
  st.rebuild_active();

  std::int64_t pushes_since_gr = 0;
  while (!st.active.empty()) {
    const index_t v = st.active.front();
    st.active.pop_front();
    if (st.m.col_match[static_cast<std::size_t>(v)] != kUnmatched)
      continue;  // matched meanwhile (re-queued stale entry)

    const index_t psi_v = st.psi_col[static_cast<std::size_t>(v)];
    if (options.gap_relabeling && st.beyond_gap(psi_v)) {
      // Unreachable: a label below ψ(v) has no columns, so no alternating
      // path can descend past the gap.
      st.m.col_match[static_cast<std::size_t>(v)] = kUnmatchable;
      st.move_label(v, psi_v, psi_inf);
      ++stats->gap_retired;
      continue;
    }

    // Find u ∈ Γ(v) minimizing ψ(u); ψ(v) − 1 is the infimum, so stop early.
    index_t psi_min = psi_inf;
    index_t u_min = kUnmatched;
    for (index_t u : g.col_neighbors(v)) {
      ++stats->scanned_edges;
      const index_t pu = st.psi_row[static_cast<std::size_t>(u)];
      if (pu < psi_min) {
        psi_min = pu;
        u_min = u;
        if (psi_min == psi_v - 1) break;
      }
    }

    if (psi_min >= psi_inf) {
      st.m.col_match[static_cast<std::size_t>(v)] = kUnmatchable;
      st.move_label(v, psi_v, psi_inf);
      continue;
    }

    // Push: steal u_min from its current match (double push) or take it
    // free (single push).  A matched row never becomes unmatched again.
    const index_t w = st.m.row_match[static_cast<std::size_t>(u_min)];
    if (w != kUnmatched) {
      st.m.col_match[static_cast<std::size_t>(w)] = kUnmatched;
      st.active.push_back(w);
    }
    st.m.row_match[static_cast<std::size_t>(u_min)] = v;
    st.m.col_match[static_cast<std::size_t>(v)] = u_min;
    st.move_label(v, psi_v, psi_min + 1);
    st.psi_row[static_cast<std::size_t>(u_min)] = psi_min + 2;
    ++stats->pushes;
    ++pushes_since_gr;

    if (pushes_since_gr >= gr_interval) {
      pushes_since_gr = 0;
      st.global_relabel();
      ++stats->global_relabels;
      st.rebuild_active();
    }
  }

  // Normalise: expose kUnmatchable columns as plain unmatched.
  for (auto& cm : st.m.col_match)
    if (cm == kUnmatchable) cm = kUnmatched;
  return std::move(st.m);
}

}  // namespace bpm::matching
