#include "multicore/pdbfs.hpp"

#include <atomic>
#include <vector>

#include "device/thread_pool.hpp"
#include "matching/detail/augment_dfs.hpp"

namespace bpm::mc {

namespace {

using graph::BipartiteGraph;
using graph::index_t;
using matching::kUnmatched;

/// Per-worker scratch reused across rounds.
struct Worker {
  std::vector<index_t> parent_row;  ///< column we reached each row from
  std::vector<index_t> frontier;
  std::vector<index_t> next;

  explicit Worker(index_t nrows)
      : parent_row(static_cast<std::size_t>(nrows), kUnmatched) {}
};

}  // namespace

PdbfsResult p_dbfs(const BipartiteGraph& g,
                   const matching::ValidMatching& init,
                   device::ThreadPool* pool) {
  PdbfsResult result;
  result.matching = init;
  PdbfsStats& stats = result.stats;
  auto& row_match = result.matching.row_match;
  auto& col_match = result.matching.col_match;

  // One slot per pool worker; the caller runs slots too, so at most
  // `slots` searches run at once.
  const unsigned slots = pool != nullptr ? pool->size() : 1;

  const auto nrows = static_cast<std::size_t>(g.num_rows());
  // claim[u]: id of the BFS tree (root column) that owns row u this round.
  std::vector<std::atomic<index_t>> claim(nrows);

  std::vector<Worker> workers;
  workers.reserve(slots);
  for (unsigned t = 0; t < slots; ++t)
    workers.emplace_back(g.num_rows());

  enum class SearchOutcome { kAugmented, kBlocked, kHopeless };

  // One disjoint-BFS from `root`.  Claimed rows (CAS winners) form the
  // private search tree; the augmenting path flips only private vertices,
  // so no further synchronisation is needed to apply it.  A search that
  // exhausts without ever hitting a foreign claim has effectively run
  // unrestricted, which proves no augmenting path from `root` exists —
  // and augmenting elsewhere can never create one (standard matching
  // lemma), so the column is retired for good.
  auto search = [&](Worker& w, index_t root) -> SearchOutcome {
    w.frontier.clear();
    w.next.clear();
    w.frontier.push_back(root);
    index_t end_row = kUnmatched;
    bool blocked = false;
    while (!w.frontier.empty() && end_row == kUnmatched) {
      for (index_t v : w.frontier) {
        for (index_t u : g.col_neighbors(v)) {
          const auto uz = static_cast<std::size_t>(u);
          index_t expected = -1;
          if (!claim[uz].compare_exchange_strong(expected, root,
                                                 std::memory_order_acq_rel)) {
            if (expected != root) blocked = true;  // foreign tree owns u
            continue;
          }
          w.parent_row[uz] = v;
          const index_t next_col = row_match[uz];
          if (next_col == kUnmatched) {
            end_row = u;
            break;
          }
          w.next.push_back(next_col);
        }
        if (end_row != kUnmatched) break;
      }
      w.frontier.swap(w.next);
      w.next.clear();
    }
    if (end_row == kUnmatched)
      return blocked ? SearchOutcome::kBlocked : SearchOutcome::kHopeless;
    index_t u = end_row;
    while (true) {
      const index_t v = w.parent_row[static_cast<std::size_t>(u)];
      const index_t prev_u = col_match[static_cast<std::size_t>(v)];
      row_match[static_cast<std::size_t>(u)] = v;
      col_match[static_cast<std::size_t>(v)] = u;
      if (prev_u == kUnmatched) break;
      u = prev_u;
    }
    return SearchOutcome::kAugmented;
  };

  while (true) {
    std::vector<index_t> unmatched;
    for (index_t v = 0; v < g.num_cols(); ++v)
      if (col_match[static_cast<std::size_t>(v)] == kUnmatched)
        unmatched.push_back(v);
    if (unmatched.empty()) break;

    for (auto& c : claim) c.store(-1, std::memory_order_relaxed);
    ++stats.rounds;

    std::atomic<std::size_t> cursor{0};
    std::atomic<std::int64_t> augmented{0};
    std::atomic<std::int64_t> blocked{0};
    auto run_worker = [&](unsigned t) {
      Worker& w = workers[t];
      while (true) {
        const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
        if (i >= unmatched.size()) break;
        switch (search(w, unmatched[i])) {
          case SearchOutcome::kAugmented:
            augmented.fetch_add(1, std::memory_order_relaxed);
            break;
          case SearchOutcome::kBlocked:
            blocked.fetch_add(1, std::memory_order_relaxed);
            break;
          case SearchOutcome::kHopeless:
            // Retire permanently; only this worker's search touched the
            // column, so the plain store is uncontested.
            col_match[static_cast<std::size_t>(unmatched[i])] =
                matching::kUnmatchable;
            break;
        }
      }
    };
    if (pool != nullptr)
      pool->run_tasks(slots, run_worker);
    else
      run_worker(0);
    stats.augmentations += augmented.load();
    stats.blocked_searches += blocked.load();

    if (augmented.load() == 0) {
      // Claims may block realisable paths, so a zero round does not prove
      // maximality; finish the (typically tiny) tail with sequential
      // disjoint-DFS phases until one of them comes up empty.
      matching::detail::DfsWorkspace ws(g);
      while (true) {
        const index_t cleaned =
            matching::detail::dfs_augment_phase(g, result.matching, ws);
        if (cleaned == 0) break;
        stats.augmentations += cleaned;
        stats.sequential_cleanup += cleaned;
      }
      break;
    }
  }

  // Normalise retired columns for the caller.
  for (auto& cm : col_match)
    if (cm == matching::kUnmatchable) cm = kUnmatched;
  return result;
}

}  // namespace bpm::mc
