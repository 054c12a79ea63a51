// Race-stress tests: hammer the concurrent kernels with oversubscribed
// worker pools (threads >> cores widens the interleaving space) and many
// seeds on graphs small enough that conflicting pushes are frequent —
// small graphs maximise the probability that two columns target the same
// row in the same kernel, which is exactly the race the paper's
// conflict-detection machinery must absorb.

#include <gtest/gtest.h>

#include "core/g_hk.hpp"
#include "core/g_pr.hpp"
#include "fanout_device.hpp"
#include "graph/generators.hpp"
#include "matching/greedy.hpp"
#include "matching/verify.hpp"
#include "multicore/pdbfs.hpp"

namespace bpm {
namespace {

using device::Device;
using graph::BipartiteGraph;
using graph::index_t;
namespace gen = graph::gen;

class GprRaceStress : public ::testing::TestWithParam<gpu::GprVariant> {};

TEST_P(GprRaceStress, TinyDenseGraphsManySeeds) {
  // Dense tiny graphs: every kernel has many active columns contending
  // for few rows.
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    const BipartiteGraph g = gen::random_uniform(12, 12, 70, seed);
    const index_t want = matching::reference_maximum_cardinality(g);
    Device dev = test_support::fanout_device(13);
    gpu::GprOptions opt;
    opt.variant = GetParam();
    opt.shrink_threshold = 2;
    const gpu::GprResult r = gpu::g_pr(dev, g, matching::Matching(g), opt);
    ASSERT_TRUE(r.matching.is_valid(g))
        << "seed " << seed << ": " << r.matching.first_violation(g);
    ASSERT_EQ(r.matching.cardinality(), want) << "seed " << seed;
  }
}

TEST_P(GprRaceStress, ContendedSingleRowStar) {
  // All columns race for the single row every single kernel.
  for (std::uint64_t run = 0; run < 10; ++run) {
    const BipartiteGraph g = gen::complete_bipartite(1, 16);
    Device dev = test_support::fanout_device(16);
    gpu::GprOptions opt;
    opt.variant = GetParam();
    const gpu::GprResult r = gpu::g_pr(dev, g, matching::Matching(g), opt);
    ASSERT_EQ(r.matching.cardinality(), 1);
  }
}

TEST_P(GprRaceStress, MediumPowerLawRepeatedRuns) {
  const BipartiteGraph g = gen::chung_lu(400, 400, 3.0, 2.3, 99);
  const index_t want = matching::reference_maximum_cardinality(g);
  for (int run = 0; run < 6; ++run) {
    Device dev = test_support::fanout_device(8);
    gpu::GprOptions opt;
    opt.variant = GetParam();
    opt.shrink_threshold = 16;
    const gpu::GprResult r =
        gpu::g_pr(dev, g, matching::cheap_matching(g), opt);
    ASSERT_EQ(r.matching.cardinality(), want) << "run " << run;
    ASSERT_TRUE(matching::is_maximum(g, r.matching));
  }
}

INSTANTIATE_TEST_SUITE_P(Variants, GprRaceStress,
                         ::testing::Values(gpu::GprVariant::kFirst,
                                           gpu::GprVariant::kNoShrink,
                                           gpu::GprVariant::kShrink),
                         [](const auto& param_info) {
                           switch (param_info.param) {
                             case gpu::GprVariant::kFirst: return "First";
                             case gpu::GprVariant::kNoShrink: return "NoShr";
                             case gpu::GprVariant::kShrink: return "Shr";
                           }
                           return "?";
                         });

TEST(GhkRaceStress, TinyDenseGraphsManySeeds) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const BipartiteGraph g = gen::random_uniform(14, 14, 80, seed);
    const index_t want = matching::reference_maximum_cardinality(g);
    Device dev = test_support::fanout_device(12);
    const gpu::GhkResult r = gpu::g_hk(dev, g, matching::Matching(g));
    ASSERT_EQ(r.matching.cardinality(), want) << "seed " << seed;
  }
}

TEST(PdbfsRaceStress, TinyGraphsManySeedsOversubscribed) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const BipartiteGraph g = gen::random_uniform(16, 16, 60, seed);
    const index_t want = matching::reference_maximum_cardinality(g);
    const mc::PdbfsResult r =
        mc::p_dbfs(g, matching::Matching(g), {.num_threads = 12});
    ASSERT_EQ(r.matching.cardinality(), want) << "seed " << seed;
  }
}

TEST(DeterminismOfResult, CardinalityIsStableAcrossRacyRuns) {
  // The matching itself may differ run to run (races pick different
  // winners) but the cardinality is an invariant.
  const BipartiteGraph g = gen::rmat(8, 4.0, 5);
  Device dev0({.num_threads = 1});
  const index_t want =
      gpu::g_pr(dev0, g, matching::Matching(g)).matching.cardinality();
  for (int run = 0; run < 8; ++run) {
    Device dev = test_support::fanout_device(7);
    EXPECT_EQ(gpu::g_pr(dev, g, matching::Matching(g)).matching.cardinality(),
              want);
  }
}

}  // namespace
}  // namespace bpm
