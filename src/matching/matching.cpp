#include "matching/matching.hpp"

#include <algorithm>
#include <cassert>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

namespace bpm::matching {
namespace {

/// Rows of at most this many entries are scanned instead of searched.
constexpr std::size_t kScanLimit = 16;

/// (u, v) ∈ E for an in-range pair; agrees with `BipartiteGraph::has_edge`.
/// Most matched rows are short, and a branch-free scan of a short row beats
/// a binary search's mispredicted branches.
bool adjacent(const BipartiteGraph& g, index_t u, index_t v) {
  const std::span<const index_t> nbrs = g.row_neighbors(u);
  if (nbrs.size() > kScanLimit)
    return std::binary_search(nbrs.begin(), nbrs.end(), v);
  bool hit = false;
  for (const index_t w : nbrs) hit |= w == v;
  return hit;
}

}  // namespace

index_t Matching::cardinality() const {
  index_t count = 0;
  for (index_t v : row_match)
    if (v >= 0) ++count;
  return count;
}

bool Matching::is_valid(const BipartiteGraph& g) const {
  return first_violation(g).empty();
}

std::string Matching::first_violation(const BipartiteGraph& g) const {
  // The message is built only once a violation is found: a valid matching
  // (every served answer) pays for the scan alone.
  using std::to_string;
  if (row_match.size() != static_cast<std::size_t>(g.num_rows()) ||
      col_match.size() != static_cast<std::size_t>(g.num_cols()))
    return "shape mismatch: " + to_string(row_match.size()) + "x" +
           to_string(col_match.size()) + " vs graph " +
           to_string(g.num_rows()) + "x" + to_string(g.num_cols());
  for (index_t u = 0; u < g.num_rows(); ++u) {
    const index_t v = row_match[static_cast<std::size_t>(u)];
    if (v == kUnmatched) continue;
    if (v < 0 || v >= g.num_cols())
      return "row " + to_string(u) + " matched to out-of-range column " +
             to_string(v);
    if (const index_t claim = col_match[static_cast<std::size_t>(v)];
        claim != u)
      return "row " + to_string(u) + " claims column " + to_string(v) +
             " but column claims " + to_string(claim);
    if (!adjacent(g, u, v))
      return "matched pair (" + to_string(u) + ", " + to_string(v) +
             ") is not an edge";
  }
  for (index_t v = 0; v < g.num_cols(); ++v) {
    const index_t u = col_match[static_cast<std::size_t>(v)];
    if (u == kUnmatched || u == kUnmatchable) continue;
    if (u < 0 || u >= g.num_rows())
      return "column " + to_string(v) + " matched to out-of-range row " +
             to_string(u);
    if (const index_t claim = row_match[static_cast<std::size_t>(u)];
        claim != v)
      return "column " + to_string(v) + " claims row " + to_string(u) +
             " but row claims " + to_string(claim);
  }
  return {};
}

Matching::Audit Matching::audit(const BipartiteGraph& g,
                                const Matching& base) const {
  Audit out;
  if (row_match.size() != static_cast<std::size_t>(g.num_rows()) ||
      col_match.size() != static_cast<std::size_t>(g.num_cols()))
    return out;
  const bool same_shape = base.row_match.size() == row_match.size();
  index_t matched = 0;
  for (index_t u = 0; u < g.num_rows(); ++u) {
    const index_t v = row_match[static_cast<std::size_t>(u)];
    if (v == kUnmatched) continue;
    if (v < 0 || v >= g.num_cols() ||
        col_match[static_cast<std::size_t>(v)] != u)
      return out;
    ++matched;
    if (same_shape && base.row_match[static_cast<std::size_t>(u)] == v)
      continue;
    ++out.changed;
    if (!adjacent(g, u, v)) return out;
  }
  // Every matched row's column claims it back, so exactly |M| columns hold a
  // row; one more would be a column whose row does not claim it.
  index_t claimed = 0;
  bool stray = false;
  for (const index_t u : col_match) {
    claimed += u >= 0 ? 1 : 0;
    stray |= u < kUnmatchable;
  }
  out.valid = !stray && claimed == matched;
  return out;
}

ValidMatching::ValidMatching(const BipartiteGraph& g, Matching m)
    : m_(std::move(m)) {
  if (std::string bad = m_.first_violation(g); !bad.empty())
    throw std::invalid_argument("invalid matching: " + bad);
}

ValidMatching::ValidMatching([[maybe_unused]] const BipartiteGraph& g,
                             Matching m, Built)
    : m_(std::move(m)) {
  assert(m_.first_violation(g).empty());
}

void Matching::match(index_t u, index_t v) {
  if (row_match[static_cast<std::size_t>(u)] != kUnmatched ||
      col_match[static_cast<std::size_t>(v)] != kUnmatched)
    throw std::logic_error("Matching::match: endpoint already matched");
  row_match[static_cast<std::size_t>(u)] = v;
  col_match[static_cast<std::size_t>(v)] = u;
}

}  // namespace bpm::matching
