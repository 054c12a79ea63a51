// Conformance and stress suite for the workload-balanced G-PR path
// (GprOptions::balance / solver `g-pr-wb`): the edge-balanced frontier
// driver must return the same maximum cardinality as every vertex-parallel
// variant on every instance, at any worker count, under oversubscription —
// and its frontier-compaction counters must be TSan-clean (this suite runs
// in the CI ThreadSanitizer job).

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "core/g_pr.hpp"
#include "core/solver.hpp"
#include "fanout_device.hpp"
#include "graph/generators.hpp"
#include "graph/instances.hpp"
#include "matching/greedy.hpp"
#include "matching/verify.hpp"

namespace bpm {
namespace {

using device::Device;
using graph::BipartiteGraph;
using graph::index_t;
namespace gen = graph::gen;

index_t balanced_cardinality(const BipartiteGraph& g, unsigned threads,
                             gpu::GprVariant variant = gpu::GprVariant::kShrink) {
  Device dev = test_support::fanout_device(threads);
  gpu::GprOptions opt;
  opt.variant = variant;
  opt.balance = gpu::BalanceMode::kOn;
  const matching::Matching init = matching::cheap_matching(g);
  const gpu::GprResult r = gpu::g_pr(dev, g, init, opt);
  EXPECT_TRUE(r.matching.is_valid(g)) << r.matching.first_violation(g);
  EXPECT_TRUE(matching::is_maximum(g, r.matching));
  // Any run that had unmatched columns to process went through the
  // frontier compaction (greedy-perfect instances skip the loop entirely).
  if (init.cardinality() < r.matching.cardinality())
    EXPECT_GT(r.stats.frontier_builds, 0);
  return r.matching.cardinality();
}

std::vector<std::pair<std::string, BipartiteGraph>> randomized_suite(
    std::uint64_t seed) {
  std::vector<std::pair<std::string, BipartiteGraph>> out;
  out.emplace_back("random", gen::random_uniform(150, 150, 600, seed));
  out.emplace_back("wide", gen::random_uniform(80, 200, 500, seed));
  out.emplace_back("chung_lu", gen::chung_lu(220, 220, 4.0, 2.3, seed));
  out.emplace_back("skew_scatter", gen::skewed_hubs(170, 200, 4, 0.3, 2.5, seed));
  out.emplace_back("skew_block",
                   gen::skewed_hubs(180, 200, 24, 0.15, 2.0, seed,
                                    /*scatter=*/false));
  out.emplace_back("trace", gen::trace_mesh(60, 3, 0.06, seed));
  out.emplace_back("planted", gen::planted_perfect(90, 1.5, seed));
  out.emplace_back("star", gen::star(50));
  out.emplace_back("chain", gen::chain(40));
  out.emplace_back("empty", gen::empty_graph(20, 20));
  return out;
}

// ---------------------------------------------------------- conformance ----

TEST(Balance, MatchesReferenceCardinalityAcrossRandomizedSuite) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    for (const auto& [name, g] : randomized_suite(seed)) {
      const index_t want = matching::reference_maximum_cardinality(g);
      if (g.num_edges() == 0) {
        // The balanced driver never builds a frontier on an empty graph;
        // just check the result shape.
        Device dev = test_support::fanout_device(4);
        gpu::GprOptions opt;
        opt.balance = gpu::BalanceMode::kOn;
        EXPECT_EQ(gpu::g_pr(dev, g, matching::cheap_matching(g), opt)
                      .matching.cardinality(),
                  want);
        continue;
      }
      EXPECT_EQ(balanced_cardinality(g, 4), want)
          << name << "#" << seed;
    }
  }
}

TEST(Balance, EveryVariantRoutesThroughTheBalancedDriver) {
  // The balance knob subsumes the variant distinction; all three must
  // still agree with the reference.
  const BipartiteGraph g = gen::skewed_hubs(150, 180, 6, 0.25, 2.5, 9);
  const index_t want = matching::reference_maximum_cardinality(g);
  for (const auto variant :
       {gpu::GprVariant::kFirst, gpu::GprVariant::kNoShrink,
        gpu::GprVariant::kShrink})
    EXPECT_EQ(balanced_cardinality(g, 4, variant), want)
        << to_string(variant);
}

TEST(Balance, WorkerCountDoesNotChangeCardinality) {
  const BipartiteGraph g = gen::skewed_hubs(300, 340, 8, 0.2, 2.5, 3);
  const index_t want = matching::reference_maximum_cardinality(g);
  // Includes heavy oversubscription (workers >> cores) to widen the space
  // of interleavings the racy kernels observe.
  for (const unsigned threads : {1u, 2u, 4u, 16u, 32u})
    EXPECT_EQ(balanced_cardinality(g, threads), want)
        << threads << " workers";
}

TEST(Balance, MiniaturePaperInstancesAgree) {
  for (const auto& inst : graph::select_instances(7)) {
    const BipartiteGraph g = inst.build(0.0008, 5);
    const index_t want = matching::reference_maximum_cardinality(g);
    EXPECT_EQ(balanced_cardinality(g, 4), want) << inst.name;
  }
}

// ------------------------------------------------------- solver surface ----

TEST(Balance, GprWbIsRegisteredAndDispatchable) {
  auto solver = SolverRegistry::instance().create("g-pr-wb");
  ASSERT_NE(solver, nullptr);
  EXPECT_EQ(solver->name(), "g-pr-wb");
  EXPECT_TRUE(solver->caps().needs_device);
  EXPECT_TRUE(solver->caps().exact);
  // g-pr-wb defaults to balance=auto, which counts as a balanced
  // capability and reports its per-solve skew decision.
  EXPECT_TRUE(solver->caps().balanced);

  const BipartiteGraph g = gen::skewed_hubs(120, 150, 4, 0.3, 2.0, 7);
  Device dev = test_support::fanout_device(4);
  const SolveContext ctx{.device = &dev};
  const matching::Matching init = matching::cheap_matching(g);
  const SolveResult r = solver->run(ctx, g, init);
  EXPECT_EQ(r.stats.cardinality, matching::reference_maximum_cardinality(g));
  EXPECT_GT(r.stats.modeled_ms, 0.0);
  EXPECT_GT(dev.native_ms(), 0.0);
  EXPECT_NE(r.stats.detail.find("skew "), std::string::npos);

  // Forcing the balanced path keeps the pre-auto behaviour (and its
  // frontier-compaction counter in the detail line).
  auto forced = SolverRegistry::instance().create("g-pr-wb");
  ASSERT_TRUE(forced->set_option("balance", "1"));
  const SolveResult rf = forced->run(ctx, g, init);
  EXPECT_EQ(rf.stats.cardinality, r.stats.cardinality);
  EXPECT_NE(rf.stats.detail.find("frontier builds"), std::string::npos);
}

TEST(Balance, AutoModeDecidesBySkewThreshold) {
  // A hub-block instance whose max/mean unmatched-column degree is far
  // above 1: with the threshold below the measured skew auto must run
  // balanced, with it above auto must fall back to vertex-parallel —
  // both agreeing on the cardinality.
  const BipartiteGraph g =
      gen::skewed_hubs(200, 240, 10, 0.2, 2.5, 11, /*scatter=*/false);
  const index_t want = matching::reference_maximum_cardinality(g);
  const matching::Matching init = matching::cheap_matching(g);
  for (const double threshold : {1.0, 1e9}) {
    Device dev = test_support::fanout_device(4);
    gpu::GprOptions opt;
    opt.balance = gpu::BalanceMode::kAuto;
    opt.balance_skew_threshold = threshold;
    const gpu::GprResult r = gpu::g_pr(dev, g, init, opt);
    EXPECT_EQ(r.matching.cardinality(), want) << "threshold " << threshold;
    EXPECT_GT(r.stats.balance_skew, 0.0);
    EXPECT_EQ(r.stats.balanced, threshold < r.stats.balance_skew);
    if (init.cardinality() < want)
      EXPECT_EQ(r.stats.frontier_builds > 0, r.stats.balanced);
  }
}

TEST(Balance, BalanceOptionSweepsOnEveryGprSolver) {
  // `balance` is a SolverSpec-sweepable knob: g-pr-shr:balance=1 runs the
  // balanced driver, g-pr-wb:balance=0 runs the vertex-parallel one.
  const BipartiteGraph g = gen::random_uniform(100, 100, 420, 3);
  const index_t want = matching::reference_maximum_cardinality(g);
  Device dev = test_support::fanout_device(4);
  const SolveContext ctx{.device = &dev};
  const matching::Matching init = matching::cheap_matching(g);
  for (const std::string spec :
       {"g-pr-shr:balance=1", "g-pr-noshr:balance=on", "g-pr-first:balance=1",
        "g-pr-wb:balance=0", "g-pr-wb:k=1.5"}) {
    const SolveResult r = SolverSpec::parse(spec).instantiate()->run(ctx, g, init);
    EXPECT_EQ(r.stats.cardinality, want) << spec;
  }
  EXPECT_THROW(
      (void)SolverSpec::parse("g-pr-wb:balance=maybe").instantiate(),
      std::invalid_argument);
}

// ---------------------------------------------------------- TSan stress ----

TEST(Balance, FrontierCompactionCountersUnderConcurrentStreams) {
  // The frontier-compaction counters (padded per-chunk tallies, the
  // prefix over worker counts, the SoA write pass) and the balanced
  // launch's work partials must be race-free when several streams drive
  // balanced runs through one shared engine concurrently — this is the
  // suite the CI TSan job audits.
  const auto engine = test_support::fanout_engine(4);
  constexpr int kStreams = 4;
  std::vector<std::thread> streams;
  std::vector<index_t> got(kStreams, -1);
  std::vector<index_t> want(kStreams, -1);
  for (int s = 0; s < kStreams; ++s)
    streams.emplace_back([&, s] {
      const auto seed = static_cast<std::uint64_t>(s);
      const BipartiteGraph g =
          gen::skewed_hubs(160, 190, 6, 0.25, 2.5, seed,
                           /*scatter=*/(s % 2) == 0);
      want[static_cast<std::size_t>(s)] =
          matching::reference_maximum_cardinality(g);
      Device stream(engine);
      gpu::GprOptions opt;
      opt.balance = gpu::BalanceMode::kOn;
      const gpu::GprResult r =
          gpu::g_pr(stream, g, matching::cheap_matching(g), opt);
      got[static_cast<std::size_t>(s)] = r.matching.cardinality();
    });
  for (auto& t : streams) t.join();
  for (int s = 0; s < kStreams; ++s)
    EXPECT_EQ(got[static_cast<std::size_t>(s)],
              want[static_cast<std::size_t>(s)])
        << "stream " << s;
}

}  // namespace
}  // namespace bpm
