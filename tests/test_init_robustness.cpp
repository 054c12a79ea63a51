// Initial-matching robustness: every solver must reach the maximum from
// ANY valid starting matching — empty, greedy, Karp–Sipser, adversarially
// partial, or already maximum.  The paper initialises everything with
// cheap matching, but the algorithms' correctness argument is
// init-independent, and downstream users will pass their own warm starts.

#include <gtest/gtest.h>

#include "core/g_hk.hpp"
#include "core/g_pr.hpp"
#include "graph/generators.hpp"
#include "matching/greedy.hpp"
#include "matching/hopcroft_karp.hpp"
#include "matching/seq_pr.hpp"
#include "matching/verify.hpp"
#include "multicore/pdbfs.hpp"
#include "util/rng.hpp"

namespace bpm {
namespace {

using device::Device;
using graph::BipartiteGraph;
using graph::index_t;
namespace gen = graph::gen;

/// An adversarial valid partial matching: greedily matched in a *random*
/// column order, then randomly thinned — produces awkward stranded
/// structures that neither cheap nor Karp–Sipser would create.
matching::Matching scrambled_init(const BipartiteGraph& g,
                                  std::uint64_t seed) {
  Rng rng(seed);
  matching::Matching m(g);
  std::vector<index_t> order(static_cast<std::size_t>(g.num_cols()));
  for (index_t v = 0; v < g.num_cols(); ++v)
    order[static_cast<std::size_t>(v)] = v;
  std::shuffle(order.begin(), order.end(), rng);
  for (index_t v : order) {
    for (index_t u : g.col_neighbors(v)) {
      if (m.row_match[static_cast<std::size_t>(u)] == matching::kUnmatched) {
        m.row_match[static_cast<std::size_t>(u)] = v;
        m.col_match[static_cast<std::size_t>(v)] = u;
        break;
      }
    }
  }
  // Thin ~40% of the pairs back out.
  for (index_t v = 0; v < g.num_cols(); ++v) {
    const index_t u = m.col_match[static_cast<std::size_t>(v)];
    if (u >= 0 && rng.chance(0.4)) {
      m.col_match[static_cast<std::size_t>(v)] = matching::kUnmatched;
      m.row_match[static_cast<std::size_t>(u)] = matching::kUnmatched;
    }
  }
  return m;
}

class InitRobustness : public ::testing::TestWithParam<const char*> {
 protected:
  index_t solve(const BipartiteGraph& g, const matching::Matching& init) {
    const std::string algo = GetParam();
    if (algo == "seq_pr")
      return matching::seq_push_relabel(g, init).cardinality();
    if (algo == "p_dbfs")
      return mc::p_dbfs(g, init, {.num_threads = 4}).matching.cardinality();
    if (algo == "g_hkdw") {
      Device dev({.num_threads = 4});
      return gpu::g_hk(dev, g, init).matching.cardinality();
    }
    Device dev({.num_threads = 4});
    gpu::GprOptions opt;
    opt.variant = algo == "g_pr_first" ? gpu::GprVariant::kFirst
                                       : gpu::GprVariant::kShrink;
    opt.shrink_threshold = 8;
    return gpu::g_pr(dev, g, init, opt).matching.cardinality();
  }

  void check_all_inits(const BipartiteGraph& g, std::uint64_t seed) {
    const index_t want = matching::reference_maximum_cardinality(g);
    EXPECT_EQ(solve(g, matching::Matching(g)), want) << "empty init";
    EXPECT_EQ(solve(g, matching::cheap_matching(g)), want) << "cheap init";
    EXPECT_EQ(solve(g, matching::karp_sipser(g)), want) << "karp-sipser init";
    EXPECT_EQ(solve(g, scrambled_init(g, seed)), want) << "scrambled init";
    // Warm-starting from an already-maximum matching must be a no-op.
    const matching::Matching maximum =
        matching::hopcroft_karp(g, matching::Matching(g));
    EXPECT_EQ(solve(g, maximum), want) << "maximum init";
  }
};

TEST_P(InitRobustness, RandomGraphs) {
  for (std::uint64_t seed = 0; seed < 4; ++seed)
    check_all_inits(gen::random_uniform(80, 80, 260, seed), seed);
}

TEST_P(InitRobustness, PowerLaw) {
  check_all_inits(gen::chung_lu(200, 200, 3.0, 2.4, 3), 3);
}

TEST_P(InitRobustness, TraceStrip) {
  check_all_inits(gen::trace_mesh(60, 3, 0.05, 5), 5);
}

INSTANTIATE_TEST_SUITE_P(Algorithms, InitRobustness,
                         ::testing::Values("seq_pr", "p_dbfs", "g_hkdw",
                                           "g_pr_first", "g_pr_shr"),
                         [](const auto& param_info) {
                           return std::string(param_info.param);
                         });

}  // namespace
}  // namespace bpm
