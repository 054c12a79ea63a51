#include <gtest/gtest.h>

#include "device/thread_pool.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "matching/greedy.hpp"
#include "matching/verify.hpp"
#include "multicore/pdbfs.hpp"
#include "valid_init.hpp"

namespace bpm::mc {
namespace {

using graph::BipartiteGraph;
using graph::index_t;
using test_support::empty_init;
namespace gen = graph::gen;

/// P-DBFS's rounds on a pool of `GetParam()` workers.
class PdbfsThreads : public ::testing::TestWithParam<unsigned> {
 protected:
  device::ThreadPool pool_{GetParam()};

  void check(const BipartiteGraph& g) {
    const index_t want = matching::reference_maximum_cardinality(g);
    for (const bool greedy_start : {false, true}) {
      const matching::ValidMatching init =
          greedy_start ? matching::cheap_matching(g) : empty_init(g);
      const PdbfsResult r = p_dbfs(g, init, &pool_);
      ASSERT_TRUE(r.matching.is_valid(g)) << r.matching.first_violation(g);
      EXPECT_EQ(r.matching.cardinality(), want);
      EXPECT_TRUE(matching::is_maximum(g, r.matching));
    }
  }
};

TEST_P(PdbfsThreads, EmptyGraph) { check(gen::empty_graph(4, 4)); }

TEST_P(PdbfsThreads, Star) { check(gen::star(9)); }

TEST_P(PdbfsThreads, CompleteSquare) { check(gen::complete_bipartite(8, 8)); }

TEST_P(PdbfsThreads, Chains) {
  check(gen::chain(2));
  check(gen::chain(64));
}

TEST_P(PdbfsThreads, RandomSparseManySeeds) {
  for (std::uint64_t seed = 0; seed < 8; ++seed)
    check(gen::random_uniform(80, 80, 260, seed));
}

TEST_P(PdbfsThreads, RandomRectangular) {
  check(gen::random_uniform(50, 120, 320, 5));
  check(gen::random_uniform(120, 50, 320, 5));
}

TEST_P(PdbfsThreads, PowerLaw) { check(gen::chung_lu(300, 300, 3.0, 2.4, 7)); }

TEST_P(PdbfsThreads, RoadLattice) { check(gen::road_network(13, 13, 0.85, 8)); }

TEST_P(PdbfsThreads, TraceStrip) { check(gen::trace_mesh(90, 3, 0.05, 9)); }

INSTANTIATE_TEST_SUITE_P(ThreadCounts, PdbfsThreads,
                         ::testing::Values(1u, 2u, 4u, 8u),
                         [](const auto& param_info) {
                           return "T" + std::to_string(param_info.param);
                         });

TEST(Pdbfs, StatsAccounting) {
  const BipartiteGraph g = gen::random_uniform(200, 200, 700, 3);
  device::ThreadPool pool(4);
  PdbfsResult r = p_dbfs(g, empty_init(g), &pool);
  EXPECT_GT(r.stats.rounds, 0);
  EXPECT_EQ(r.stats.augmentations, r.matching.cardinality());
}

TEST(Pdbfs, RejectsInvalidInitialMatching) {
  const BipartiteGraph g = gen::complete_bipartite(2, 2);
  matching::Matching bad(g);
  bad.col_match[1] = 0;
  test_support::expect_rejected(g, bad);
}

TEST(Pdbfs, OversubscribedThreadsStillCorrect) {
  // More pool workers than unmatched columns and than cores.
  const BipartiteGraph g = gen::random_uniform(40, 40, 120, 6);
  const index_t want = matching::reference_maximum_cardinality(g);
  device::ThreadPool pool(16);
  const PdbfsResult r = p_dbfs(g, empty_init(g), &pool);
  EXPECT_EQ(r.matching.cardinality(), want);
}

}  // namespace
}  // namespace bpm::mc
