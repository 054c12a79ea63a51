#include "matching/matching.hpp"

#include <stdexcept>
#include <string>

namespace bpm::matching {

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
    if (!g.has_edge(u, v))
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

void Matching::match(index_t u, index_t v) {
  if (row_match[static_cast<std::size_t>(u)] != kUnmatched ||
      col_match[static_cast<std::size_t>(v)] != kUnmatched)
    throw std::logic_error("Matching::match: endpoint already matched");
  row_match[static_cast<std::size_t>(u)] = v;
  col_match[static_cast<std::size_t>(v)] = u;
}

}  // namespace bpm::matching
