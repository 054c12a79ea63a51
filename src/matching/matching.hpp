#pragma once

#include <string>
#include <vector>

#include "graph/bipartite_graph.hpp"

namespace bpm::matching {

using graph::BipartiteGraph;
using graph::index_t;

/// Sentinel values in the µ arrays, following the paper's convention.
inline constexpr index_t kUnmatched = -1;     ///< µ(x) = −1
inline constexpr index_t kUnmatchable = -2;   ///< µ(v) = −2 (inactive column)

/// A (partial) matching M of a bipartite graph, stored as the paper's µ
/// arrays: `row_match[u]` is the column matched to row u (or −1), and
/// `col_match[v]` the row matched to column v (−1 unmatched, −2 proven
/// unmatchable).
///
/// A *consistent* matching has `row_match[col_match[v]] == v` for every
/// matched column and vice versa.  GPU kernels temporarily violate this on
/// the column side (the paper's benign inconsistencies); `Matching` is the
/// repaired, consistent form handed back to callers.
struct Matching {
  std::vector<index_t> row_match;
  std::vector<index_t> col_match;

  Matching() = default;

  /// An empty matching of the right shape for `g`.
  explicit Matching(const BipartiteGraph& g)
      : row_match(static_cast<std::size_t>(g.num_rows()), kUnmatched),
        col_match(static_cast<std::size_t>(g.num_cols()), kUnmatched) {}

  /// |M|: number of matched pairs.  Rows are authoritative.
  [[nodiscard]] index_t cardinality() const;

  /// True if every matched pair is an edge of `g` and the two µ arrays
  /// mutually agree.  One pass over both µ arrays plus one lookup per
  /// matched row: rows of up to 16 entries are scanned, longer ones
  /// binary-searched, so O(V + |M| log d) at worst.
  [[nodiscard]] bool is_valid(const BipartiteGraph& g) const;

  /// Human-readable reason for the first validity violation, or "" if valid.
  [[nodiscard]] std::string first_violation(const BipartiteGraph& g) const;

  /// What one `audit` pass learned.
  struct Audit {
    bool valid = false;  ///< every check the pass makes held
    /// Matched rows whose column differs from the base's: the pairs the
    /// pass looked up in the graph (up to the first violation).
    index_t changed = 0;
  };

  /// Validity relative to `base`, a matching of `g` this one was derived
  /// from, in one O(V) pass: shape, range and µ agreement are checked for
  /// every pair, but only pairs that differ from `base.row_match` are
  /// looked up in `g` (every pair, if `base` has the wrong shape).  A pair
  /// carried over unchanged is taken to be an edge, so this proves
  /// validity only when `base` is valid.  Checks a subset of what
  /// `first_violation` checks: `valid == false` implies `first_violation`
  /// names the reason, and with a valid `base`, `valid` equals `is_valid`.
  [[nodiscard]] Audit audit(const BipartiteGraph& g,
                            const Matching& base) const;

  /// Adds edge {u, v}; both endpoints must be free.
  void match(index_t u, index_t v);
};

/// A `Matching` proven valid for the graph it was built with: the proof is
/// the only way in, so a function that takes one needs no check of its
/// own.  The public constructor runs `first_violation` once; `cheap_matching`
/// and `karp_sipser` build valid matchings by construction and return one
/// directly (asserted in debug builds).  Read-only; converts implicitly to
/// `const Matching&`.  It does not hold its graph, so pass it only with the
/// graph it was proven for (`PipelineInstance` keeps the two together).
class ValidMatching {
 public:
  /// Throws `std::invalid_argument` ("invalid matching: " +
  /// `m.first_violation(g)`) unless `m` is a valid matching of `g`.
  ValidMatching(const BipartiteGraph& g, Matching m);

  operator const Matching&() const noexcept { return m_; }
  [[nodiscard]] const Matching& get() const noexcept { return m_; }
  [[nodiscard]] index_t cardinality() const { return m_.cardinality(); }

 private:
  struct Built {};
  /// For the heuristics that are valid by construction.
  ValidMatching(const BipartiteGraph& g, Matching m, Built);
  friend ValidMatching cheap_matching(const BipartiteGraph& g);
  friend ValidMatching karp_sipser(const BipartiteGraph& g);

  Matching m_;
};

}  // namespace bpm::matching
