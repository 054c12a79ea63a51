#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "core/g_pr.hpp"
#include "fanout_device.hpp"
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
namespace gen = graph::gen;

/// The full configuration grid: variant x device threads (1 runs every
/// launch in order; 4 fans every launch out) x balanced schedule
/// (GprOptions::balance off / on).
using Config = std::tuple<GprVariant, unsigned, bool>;

std::string config_name(const ::testing::TestParamInfo<Config>& param_info) {
  const auto [variant, threads, balanced] = param_info.param;
  std::string name;
  switch (variant) {
    case GprVariant::kFirst: name = "First"; break;
    case GprVariant::kNoShrink: name = "NoShr"; break;
    case GprVariant::kShrink: name = "Shr"; break;
  }
  name += threads == 1 ? "_Seq" : "_Conc";
  if (balanced) name += "_Balanced";
  return name;
}

class GprConfigs : public ::testing::TestWithParam<Config> {
 protected:
  GprOptions options() const {
    GprOptions opt;
    opt.variant = std::get<0>(GetParam());
    opt.balance =
        std::get<2>(GetParam()) ? BalanceMode::kOn : BalanceMode::kOff;
    // A tiny shrink threshold so small test graphs exercise SHRKRNL.
    opt.shrink_threshold = 4;
    return opt;
  }

  Device make_device() const {
    return test_support::fanout_device(std::get<1>(GetParam()));
  }

  /// Solves from both empty and greedy starts and verifies maximality via
  /// the independent Berge certificate plus the reference cardinality.
  void check(const BipartiteGraph& g) {
    const index_t want = matching::reference_maximum_cardinality(g);
    for (const bool greedy_start : {false, true}) {
      Device dev = make_device();
      const matching::Matching init =
          greedy_start ? matching::cheap_matching(g) : matching::Matching(g);
      const GprResult r = g_pr(dev, g, init, options());
      ASSERT_TRUE(r.matching.is_valid(g)) << r.matching.first_violation(g);
      EXPECT_EQ(r.matching.cardinality(), want)
          << (greedy_start ? "greedy start" : "empty start");
      EXPECT_TRUE(matching::is_maximum(g, r.matching));
    }
  }
};

TEST_P(GprConfigs, EmptyGraph) { check(gen::empty_graph(4, 6)); }

TEST_P(GprConfigs, EdgelessSidesOfDifferentSizes) {
  check(gen::empty_graph(1, 9));
}

TEST_P(GprConfigs, SingleEdge) {
  check(graph::build_from_edges(1, 1, std::vector<graph::Edge>{{0, 0}}));
}

TEST_P(GprConfigs, Star) { check(gen::star(7)); }

TEST_P(GprConfigs, CompleteSquare) { check(gen::complete_bipartite(8, 8)); }

TEST_P(GprConfigs, CompleteRectangular) {
  check(gen::complete_bipartite(3, 11));
  check(gen::complete_bipartite(11, 3));
}

TEST_P(GprConfigs, ChainsOfManyLengths) {
  for (const index_t k : {1, 2, 3, 5, 16, 64, 200}) check(gen::chain(k));
}

TEST_P(GprConfigs, PlantedPerfect) {
  check(gen::planted_perfect(100, 1.5, 3));
}

TEST_P(GprConfigs, RandomSparseManySeeds) {
  for (std::uint64_t seed = 0; seed < 8; ++seed)
    check(gen::random_uniform(70, 70, 220, seed));
}

TEST_P(GprConfigs, RandomRectangular) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    check(gen::random_uniform(40, 100, 260, seed));
    check(gen::random_uniform(100, 40, 260, seed));
  }
}

TEST_P(GprConfigs, PowerLawWithUnmatchables) {
  check(gen::chung_lu(250, 250, 3.0, 2.3, 5));
}

TEST_P(GprConfigs, RoadLattice) { check(gen::road_network(14, 14, 0.85, 4)); }

TEST_P(GprConfigs, TraceStripLongPaths) {
  check(gen::trace_mesh(100, 3, 0.05, 4));
}

TEST_P(GprConfigs, KronSkewed) { check(gen::rmat(7, 6.0, 9)); }

TEST_P(GprConfigs, RelabelStrategySweepReachesMaximum) {
  const BipartiteGraph g = gen::chung_lu(200, 200, 4.0, 2.5, 7);
  const index_t want = matching::reference_maximum_cardinality(g);
  for (const RelabelStrategy strategy :
       {RelabelStrategy::kAdaptive, RelabelStrategy::kFixed}) {
    for (const double k : {0.3, 0.7, 1.0, 1.5, 2.0, 10.0, 50.0}) {
      Device dev = make_device();
      GprOptions opt = options();
      opt.strategy = strategy;
      opt.k = k;
      const GprResult r = g_pr(dev, g, matching::cheap_matching(g), opt);
      EXPECT_EQ(r.matching.cardinality(), want)
          << to_string(strategy) << " k=" << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, GprConfigs,
    ::testing::Combine(::testing::Values(GprVariant::kFirst,
                                         GprVariant::kNoShrink,
                                         GprVariant::kShrink),
                       ::testing::Values(1u, 4u), ::testing::Bool()),
    config_name);

// ------------------------------------------------------------ invariants ----

TEST(Gpr, RejectsInvalidInitialMatching) {
  const BipartiteGraph g = gen::complete_bipartite(2, 2);
  matching::Matching bad(g);
  bad.col_match[0] = 1;  // one-sided
  test_support::expect_rejected(g, bad);
  // The `Matching` overload proves its init the same way before solving.
  Device dev({.num_threads = 1});
  test_support::expect_proof_error(g, bad, [&] { (void)g_pr(dev, g, bad); });
}

TEST(Gpr, StatsAccounting) {
  const BipartiteGraph g = gen::random_uniform(200, 200, 900, 11);
  Device dev({.num_threads = 1});
  const GprResult r = g_pr(dev, g, matching::cheap_matching(g));
  EXPECT_GE(r.stats.global_relabels, 1);     // forced at loop 0
  EXPECT_GE(r.stats.loops, 1);
  EXPECT_GE(dev.launches(), static_cast<std::uint64_t>(r.stats.loops));
  EXPECT_GE(r.stats.gr_level_kernels, r.stats.global_relabels);
  EXPECT_GE(r.stats.total_ms, 0.0);
}

TEST(Gpr, ShrinkFiresOnlyAboveThreshold) {
  const BipartiteGraph g = gen::chung_lu(600, 600, 2.5, 2.3, 13);
  const matching::Matching init(g);  // empty: large active list
  {
    Device dev({.num_threads = 1});
    GprOptions opt;
    opt.variant = GprVariant::kShrink;
    opt.shrink_threshold = 4;
    const GprResult r = g_pr(dev, g, init, opt);
    EXPECT_GT(r.stats.shrinks, 0);
  }
  {
    Device dev({.num_threads = 1});
    GprOptions opt;
    opt.variant = GprVariant::kShrink;
    opt.shrink_threshold = 1 << 30;  // effectively never
    const GprResult r = g_pr(dev, g, init, opt);
    EXPECT_EQ(r.stats.shrinks, 0);
  }
}

TEST(Gpr, NoShrinkVariantNeverShrinks) {
  const BipartiteGraph g = gen::random_uniform(100, 100, 300, 2);
  Device dev({.num_threads = 1});
  GprOptions opt;
  opt.variant = GprVariant::kNoShrink;
  opt.shrink_threshold = 1;
  const GprResult r = g_pr(dev, g, matching::Matching(g), opt);
  EXPECT_EQ(r.stats.shrinks, 0);
}

TEST(Gpr, RowMatchesNeverRegress) {
  // "Once a row is matched, it never becomes unmatched again" — check the
  // final matching covers at least every row the greedy init covered.
  const BipartiteGraph g = gen::chung_lu(300, 300, 4.0, 2.5, 17);
  const matching::Matching init = matching::cheap_matching(g);
  Device dev = test_support::fanout_device(4);
  const GprResult r = g_pr(dev, g, init);
  for (index_t u = 0; u < g.num_rows(); ++u) {
    if (init.row_match[static_cast<std::size_t>(u)] != matching::kUnmatched) {
      EXPECT_NE(r.matching.row_match[static_cast<std::size_t>(u)],
                matching::kUnmatched)
          << "row " << u << " lost its match";
    }
  }
}

TEST(Gpr, FixMatchingNormalisesAllColumns) {
  const BipartiteGraph g = gen::chung_lu(200, 200, 2.0, 2.3, 23);
  Device dev = test_support::fanout_device(4);
  const GprResult r = g_pr(dev, g, matching::Matching(g));
  for (index_t v = 0; v < g.num_cols(); ++v) {
    const index_t u = r.matching.col_match[static_cast<std::size_t>(v)];
    EXPECT_GE(u, matching::kUnmatched);  // no kUnmatchable leaks out
    if (u >= 0) {
      EXPECT_EQ(r.matching.row_match[static_cast<std::size_t>(u)], v);
    }
  }
}

TEST(Gpr, LoopGuardTriggersWhenForcedTiny) {
  // K_{1,16}: 16 columns fight over one row, stealing it from each other
  // for many loops — so an absurdly small bound must fire.
  const BipartiteGraph g = gen::complete_bipartite(1, 16);
  Device dev({.num_threads = 1});
  GprOptions opt;
  opt.max_loops = 1;  // unreasonably small on purpose
  EXPECT_THROW((void)g_pr(dev, g, matching::Matching(g), opt),
               std::runtime_error);
}

TEST(Gpr, PerfectInitialMatchingTerminatesImmediately) {
  const BipartiteGraph g = gen::complete_bipartite(6, 6);
  matching::Matching perfect(g);
  for (index_t i = 0; i < 6; ++i) perfect.match(i, i);
  Device dev({.num_threads = 1});
  const GprResult r = g_pr(dev, g, perfect);
  EXPECT_EQ(r.matching.cardinality(), 6);
  EXPECT_EQ(r.stats.global_relabels, 0);  // active list empty from the start
}

TEST(Gpr, DescribeNamesConfigurations) {
  GprOptions opt;
  opt.variant = GprVariant::kFirst;
  opt.strategy = RelabelStrategy::kFixed;
  const std::string d = opt.describe();
  EXPECT_NE(d.find("G-PR-First"), std::string::npos);
  EXPECT_NE(d.find("fix"), std::string::npos);
}

}  // namespace
}  // namespace bpm::gpu
