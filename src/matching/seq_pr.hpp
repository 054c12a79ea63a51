#pragma once

#include <cstdint>

#include "graph/bipartite_graph.hpp"
#include "matching/matching.hpp"

namespace bpm::matching {

/// Options for the sequential push-relabel matcher.
struct SeqPrOptions {
  /// Global relabel every `global_relabel_k * (m + n)` pushes.  The paper
  /// tried several values for its PR baseline and settled on k = 0.5
  /// (Section IV); `table1_runtimes --algo seq-pr:k=0.25,seq-pr:k=1,...`
  /// sweeps this.
  double global_relabel_k = 0.5;

  /// Gap relabeling (abstract of the paper; standard PR heuristic): when a
  /// column label value becomes unpopulated, every column above the gap is
  /// unreachable and is retired on its next activation.
  bool gap_relabeling = true;

  /// Run one global relabel before the main loop (exact initial distances).
  bool initial_global_relabel = true;
};

/// Operation counters for analysis benches and tests.
struct SeqPrStats {
  std::int64_t pushes = 0;            ///< single + double pushes
  std::int64_t scanned_edges = 0;     ///< Γ(v) entries inspected
  std::int64_t global_relabels = 0;
  std::int64_t gap_retired = 0;       ///< columns retired by the gap heuristic
};

/// Sequential push-relabel bipartite matching (the paper's Algorithm 1,
/// PR), processing active columns in FIFO order with periodic global
/// relabeling (Algorithm 2) — the configuration the paper benchmarks
/// against (Kaya et al.'s implementation).
///
/// `init` is the starting matching (the paper always uses
/// `cheap_matching`); it must be valid for `g`.  Returns a maximum
/// cardinality matching with all kUnmatchable markers normalised to
/// kUnmatched.
[[nodiscard]] Matching seq_push_relabel(const BipartiteGraph& g, Matching init,
                                        const SeqPrOptions& options = {},
                                        SeqPrStats* stats = nullptr);

}  // namespace bpm::matching
