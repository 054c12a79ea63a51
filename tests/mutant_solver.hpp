#pragma once

// A registered test solver for verification mutation tests: it solves with
// Hopcroft–Karp, then breaks the result in one named way that
// `run_verified`'s certificate must catch.  Shared by the pipeline and the
// service suites so both layers are held to the same mutations.
//
//   test-mutant:mode=minus-one   a valid matching one pair short of maximum
//   test-mutant:mode=stats-lie   the maximum matching, with stats claiming
//                                one pair more than it holds
//   test-mutant:mode=invalid     a matching that pairs a non-edge
//   ...,exact=0                  registers as a heuristic (default: exact)

#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>

#include "core/solver.hpp"
#include "matching/hopcroft_karp.hpp"

namespace bpm::test_support {

class MutantSolver final : public Solver {
 public:
  [[nodiscard]] std::string name() const override { return "test-mutant"; }
  [[nodiscard]] SolverCaps caps() const override { return {.exact = exact_}; }
  bool set_option(std::string_view key, std::string_view value) override {
    if (key == "mode") {
      if (value != "minus-one" && value != "stats-lie" && value != "invalid")
        throw std::invalid_argument("test-mutant: unknown mode");
      mode_ = value;
    } else if (key == "exact") {
      exact_ = value == "1";
    } else {
      return false;
    }
    return true;
  }
  [[nodiscard]] SolveResult run(const SolveContext&,
                                const graph::BipartiteGraph& g,
                                const matching::Matching& init) const override {
    SolveResult out{matching::hopcroft_karp(g, init), {}};
    matching::Matching& m = out.matching;
    if (mode_ == "minus-one") {
      for (graph::index_t u = 0; u < g.num_rows(); ++u) {
        const graph::index_t v = m.row_match[u];
        if (v == matching::kUnmatched) continue;
        m.row_match[u] = matching::kUnmatched;
        m.col_match[v] = matching::kUnmatched;
        break;
      }
    } else if (mode_ == "invalid") {
      pair_a_non_edge(g, m);
    }
    out.stats.cardinality = m.cardinality();
    if (mode_ == "stats-lie") out.stats.cardinality += 1;
    return out;
  }

 private:
  /// Frees some row u and column w that are not adjacent, then matches
  /// them: the µ arrays stay consistent, but (u, w) is not an edge.
  static void pair_a_non_edge(const graph::BipartiteGraph& g,
                              matching::Matching& m) {
    for (graph::index_t u = 0; u < g.num_rows(); ++u)
      for (graph::index_t w = 0; w < g.num_cols(); ++w) {
        if (g.has_edge(u, w)) continue;
        if (m.row_match[u] != matching::kUnmatched)
          m.col_match[m.row_match[u]] = matching::kUnmatched;
        if (m.col_match[w] != matching::kUnmatched)
          m.row_match[m.col_match[w]] = matching::kUnmatched;
        m.row_match[u] = matching::kUnmatched;
        m.col_match[w] = matching::kUnmatched;
        m.match(u, w);
        return;
      }
    throw std::logic_error("test-mutant: the graph is complete");
  }

  std::string mode_ = "minus-one";
  bool exact_ = true;
};

/// Registers `test-mutant` once per process.
inline void register_mutant_solver() {
  static const bool registered = [] {
    SolverRegistry::instance().add(
        "test-mutant", [] { return std::make_unique<MutantSolver>(); });
    return true;
  }();
  (void)registered;
}

}  // namespace bpm::test_support
