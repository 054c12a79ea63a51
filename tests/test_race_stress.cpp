// Race-stress tests: hammer the concurrent kernels with oversubscribed
// worker pools (threads >> cores widens the interleaving space) and many
// seeds on graphs small enough that conflicting pushes are frequent —
// small graphs maximise the probability that two columns target the same
// row in the same kernel, which is exactly the race the paper's
// conflict-detection machinery must absorb.

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "core/g_hk.hpp"
#include "core/g_pr.hpp"
#include "core/solver.hpp"
#include "fanout_device.hpp"
#include "graph/generators.hpp"
#include "matching/greedy.hpp"
#include "matching/verify.hpp"
#include "multicore/pdbfs.hpp"
#include "valid_init.hpp"

namespace bpm {
namespace {

using device::Device;
using graph::BipartiteGraph;
using graph::index_t;
using test_support::empty_init;
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
    const gpu::GprResult r = gpu::g_pr(dev, g, empty_init(g), opt);
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
    const gpu::GprResult r = gpu::g_pr(dev, g, empty_init(g), opt);
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
    const gpu::GhkResult r = gpu::g_hk(dev, g, empty_init(g));
    ASSERT_EQ(r.matching.cardinality(), want) << "seed " << seed;
  }
}

TEST(PdbfsRaceStress, TinyGraphsManySeedsOversubscribed) {
  device::ThreadPool pool(12);
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const BipartiteGraph g = gen::random_uniform(16, 16, 60, seed);
    const index_t want = matching::reference_maximum_cardinality(g);
    const mc::PdbfsResult r = mc::p_dbfs(g, empty_init(g), &pool);
    ASSERT_EQ(r.matching.cardinality(), want) << "seed " << seed;
  }
}

TEST(PdbfsRaceStress, TwoSolvesShareOneEnginePool) {
  // Two service workers solve P-DBFS at once, each on its own stream of
  // the one engine, so both solves' rounds interleave on the same pool.
  constexpr std::uint64_t kSeeds = 20;
  std::vector<BipartiteGraph> graphs;
  std::vector<index_t> want;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    graphs.push_back(gen::random_uniform(120, 120, 420, seed));
    want.push_back(matching::reference_maximum_cardinality(graphs.back()));
  }
  const auto engine = std::make_shared<device::Engine>(4);
  std::vector<index_t> got[2];
  auto solve_all = [&](std::vector<index_t>& out) {
    Device stream(engine);
    const SolveContext ctx{.device = &stream};
    const std::unique_ptr<Solver> solver =
        SolverRegistry::instance().create("p-dbfs");
    for (const BipartiteGraph& g : graphs)
      out.push_back(solver->run(ctx, g, empty_init(g)).stats.cardinality);
  };
  std::thread other(solve_all, std::ref(got[1]));
  solve_all(got[0]);
  other.join();
  for (const std::vector<index_t>& out : got) EXPECT_EQ(out, want);
}

TEST(DeterminismOfResult, CardinalityIsStableAcrossRacyRuns) {
  // The matching itself may differ run to run (races pick different
  // winners) but the cardinality is an invariant.
  const BipartiteGraph g = gen::rmat(8, 4.0, 5);
  Device dev0({.num_threads = 1});
  const index_t want =
      gpu::g_pr(dev0, g, empty_init(g)).matching.cardinality();
  for (int run = 0; run < 8; ++run) {
    Device dev = test_support::fanout_device(7);
    EXPECT_EQ(gpu::g_pr(dev, g, empty_init(g)).matching.cardinality(),
              want);
  }
}

}  // namespace
}  // namespace bpm
