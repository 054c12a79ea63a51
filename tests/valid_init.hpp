#pragma once

// Helpers for tests that hand solvers a proven init (`ValidMatching`).

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "graph/bipartite_graph.hpp"
#include "matching/matching.hpp"

namespace bpm::test_support {

/// The empty start, proven like any other init.
inline matching::ValidMatching empty_init(const graph::BipartiteGraph& g) {
  return {g, matching::Matching(g)};
}

/// `attempt()` throws `std::invalid_argument` with the proof's message for
/// `m`: "invalid matching: " + `m.first_violation(g)`.
template <class Attempt>
void expect_proof_error(const graph::BipartiteGraph& g,
                        const matching::Matching& m, Attempt&& attempt) {
  const std::string reason = m.first_violation(g);
  ASSERT_FALSE(reason.empty()) << "the test's matching is valid";
  try {
    attempt();
    ADD_FAILURE() << "accepted an invalid matching: " << reason;
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), "invalid matching: " + reason);
  }
}

/// The proof rejects `m` for `g`, so no solver can be handed it.
inline void expect_rejected(const graph::BipartiteGraph& g,
                            const matching::Matching& m) {
  expect_proof_error(g, m, [&] { (void)matching::ValidMatching(g, m); });
}

}  // namespace bpm::test_support
