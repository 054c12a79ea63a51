#pragma once

// A registered test solver for verification mutation tests: it solves with
// Hopcroft–Karp, then breaks the result in one named way that
// `run_verified`'s certificate must catch.  Shared by the pipeline and the
// service suites so both layers are held to the same mutations.
//
//   test-mutant:mode=minus-one   a valid matching one pair short of maximum
//   test-mutant:mode=invalid     a matching that pairs a non-edge
//   test-mutant:mode=one-sided   the maximum matching, with one pair carried
//                                over unchanged from the init claimed by
//                                its row but not by its column
//   test-mutant:mode=throw       solves, then throws instead of returning
//   ...,exact=0                  registers as a heuristic (default: exact)
//   ...,first=<ms>               breaks only its first solve, after
//                                sleeping <ms> ms; later solves return the
//                                maximum (a slow failing rep, then fast
//                                passing ones)

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/solver.hpp"
#include "matching/hopcroft_karp.hpp"

namespace bpm::test_support {

class MutantSolver final : public Solver {
 public:
  [[nodiscard]] std::string name() const override { return "test-mutant"; }
  [[nodiscard]] SolverCaps caps() const override { return {.exact = exact_}; }
  bool set_option(std::string_view key, std::string_view value) override {
    if (key == "mode") {
      if (value != "minus-one" && value != "invalid" &&
          value != "one-sided" && value != "throw")
        throw std::invalid_argument("test-mutant: unknown mode");
      mode_ = value;
    } else if (key == "exact") {
      exact_ = value == "1";
    } else if (key == "first") {
      first_ms_ = std::stoi(std::string(value));
    } else {
      return false;
    }
    return true;
  }
  [[nodiscard]] Output solve_impl(
      const SolveContext&, const graph::BipartiteGraph& g,
      const matching::ValidMatching& init) const override {
    Output out{matching::hopcroft_karp(g, init)};
    matching::Matching& m = out.matching;
    if (first_ms_ >= 0) {
      if (solves_.fetch_add(1) > 0) return out;
      std::this_thread::sleep_for(std::chrono::milliseconds(first_ms_));
    }
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
    } else if (mode_ == "one-sided") {
      clear_a_carried_column(init, m);
    } else if (mode_ == "throw") {
      throw std::runtime_error("test-mutant: thrown after solving");
    }
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

  /// Clears `col_match` of a pair that `m` kept unchanged from `init`: the
  /// pair needs no edge lookup, so only the µ agreement check can catch it.
  static void clear_a_carried_column(const matching::Matching& init,
                                     matching::Matching& m) {
    for (std::size_t u = 0; u < m.row_match.size(); ++u) {
      const graph::index_t v = m.row_match[u];
      if (v == matching::kUnmatched || init.row_match[u] != v) continue;
      m.col_match[v] = matching::kUnmatched;
      return;
    }
    throw std::logic_error("test-mutant: no pair carried over from the init");
  }

  std::string mode_ = "minus-one";
  bool exact_ = true;
  int first_ms_ = -1;  ///< -1: break every solve
  mutable std::atomic<int> solves_{0};
};

/// Every mutant spec, each with the text its rejection must contain.
inline const std::vector<std::pair<std::string, std::string>> kMutants = {
    {"test-mutant:mode=minus-one", "Berge certificate failed"},
    {"test-mutant:mode=invalid", "invalid matching"},
    {"test-mutant:exact=0,mode=invalid", "invalid matching"},
    {"test-mutant:mode=one-sided", "invalid matching"},
    {"test-mutant:exact=0,mode=one-sided", "invalid matching"},
    {"test-mutant:mode=throw", "thrown after solving"}};

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
