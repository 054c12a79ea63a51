#include <gtest/gtest.h>

#include "core/g_hk.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "matching/greedy.hpp"
#include "matching/verify.hpp"
#include "valid_init.hpp"

namespace bpm::gpu {
namespace {

using device::Device;
using graph::BipartiteGraph;
using graph::index_t;
using test_support::empty_init;
namespace gen = graph::gen;

using Config = std::tuple<bool /*duff_wiberg*/, unsigned /*threads*/>;

std::string config_name(const ::testing::TestParamInfo<Config>& param_info) {
  std::string name = std::get<0>(param_info.param) ? "GHKDW" : "GHK";
  name += std::get<1>(param_info.param) == 1 ? "_Seq" : "_Conc";
  return name;
}

class GhkConfigs : public ::testing::TestWithParam<Config> {
 protected:
  void check(const BipartiteGraph& g) {
    const index_t want = matching::reference_maximum_cardinality(g);
    for (const bool greedy_start : {false, true}) {
      Device dev({.num_threads = std::get<1>(GetParam())});
      const matching::ValidMatching init =
          greedy_start ? matching::cheap_matching(g) : empty_init(g);
      const GhkResult r =
          g_hk(dev, g, init, {.duff_wiberg = std::get<0>(GetParam())});
      ASSERT_TRUE(r.matching.is_valid(g)) << r.matching.first_violation(g);
      EXPECT_EQ(r.matching.cardinality(), want);
      EXPECT_TRUE(matching::is_maximum(g, r.matching));
    }
  }
};

TEST_P(GhkConfigs, EmptyGraph) { check(gen::empty_graph(3, 3)); }

TEST_P(GhkConfigs, SingleEdge) {
  check(graph::build_from_edges(1, 1, std::vector<graph::Edge>{{0, 0}}));
}

TEST_P(GhkConfigs, Star) { check(gen::star(6)); }

TEST_P(GhkConfigs, CompleteSquare) { check(gen::complete_bipartite(7, 7)); }

TEST_P(GhkConfigs, Chains) {
  check(gen::chain(2));
  check(gen::chain(33));
  check(gen::chain(150));
}

TEST_P(GhkConfigs, RandomSparseManySeeds) {
  for (std::uint64_t seed = 0; seed < 8; ++seed)
    check(gen::random_uniform(70, 70, 220, seed));
}

TEST_P(GhkConfigs, RandomRectangular) {
  check(gen::random_uniform(50, 110, 300, 3));
  check(gen::random_uniform(110, 50, 300, 3));
}

TEST_P(GhkConfigs, PowerLaw) { check(gen::chung_lu(250, 250, 3.0, 2.3, 6)); }

TEST_P(GhkConfigs, TraceStrip) { check(gen::trace_mesh(80, 3, 0.05, 6)); }

TEST_P(GhkConfigs, PlantedPerfect) {
  check(gen::planted_perfect(90, 1.2, 8));
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, GhkConfigs,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Values(1u, 4u)),
    config_name);

TEST(Ghk, StatsAccounting) {
  const BipartiteGraph g = gen::random_uniform(150, 150, 500, 5);
  Device dev({.num_threads = 1});
  const GhkResult r = g_hk(dev, g, empty_init(g));
  EXPECT_GT(r.stats.phases, 0);
  EXPECT_GT(r.stats.augmentations, 0);
  EXPECT_GT(r.stats.bfs_level_kernels, 0);
  // Sequential device: claims cannot collide, so no fallbacks.
  EXPECT_EQ(r.stats.sequential_fallbacks, 0);
}

TEST(Ghk, DuffWibergPassAugments) {
  const BipartiteGraph g = gen::chung_lu(400, 400, 4.0, 2.5, 12);
  Device dev({.num_threads = 1});
  const GhkResult dw = g_hk(dev, g, empty_init(g), {.duff_wiberg = true});
  Device dev2({.num_threads = 1});
  const GhkResult plain =
      g_hk(dev2, g, empty_init(g), {.duff_wiberg = false});
  EXPECT_EQ(dw.matching.cardinality(), plain.matching.cardinality());
  EXPECT_GT(dw.stats.dw_augmentations, 0);
  EXPECT_LE(dw.stats.phases, plain.stats.phases);
}

TEST(Ghk, RejectsInvalidInitialMatching) {
  const BipartiteGraph g = gen::complete_bipartite(2, 2);
  matching::Matching bad(g);
  bad.row_match[1] = 0;
  test_support::expect_rejected(g, bad);
}

}  // namespace
}  // namespace bpm::gpu
