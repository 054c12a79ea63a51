// policy::{InstanceFeatures, CostModel, PolicyEngine, AutoSolver}
// (src/policy/): feature determinism and permutation invariance, cost-model
// JSON round trips (byte identity — the committed table must be diffable),
// auto resolution validity across the generator pool, epsilon-greedy online
// convergence under concurrent choose/observe (TSan-stressable), and the
// resolved_from provenance seam that lets auto requests share result-cache
// entries with explicit ones.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/solver.hpp"
#include "device/device.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "matching/greedy.hpp"
#include "matching/verify.hpp"
#include "policy/auto_solver.hpp"
#include "policy/cost_model.hpp"
#include "policy/features.hpp"
#include "serve/result_cache.hpp"
#include "serve/service.hpp"

namespace bpm::policy {
namespace {

namespace gen = graph::gen;
using graph::BipartiteGraph;
using graph::index_t;

std::vector<BipartiteGraph> generator_pool() {
  std::vector<BipartiteGraph> graphs;
  graphs.push_back(gen::random_uniform(500, 520, 2600, 7));
  graphs.push_back(gen::planted_perfect(400, 2.5, 11));
  graphs.push_back(gen::chung_lu(600, 600, 4.0, 2.3, 13));
  graphs.push_back(gen::trace_mesh(200, 6, 0.05, 17));
  graphs.push_back(gen::skewed_hubs(400, 440, 6, 0.05, 2.5, 19));
  graphs.push_back(gen::rmat(9, 4.0, 23));
  graphs.push_back(gen::complete_bipartite(40, 25));
  return graphs;
}

// ------------------------------------------------------------- features ----

TEST(Features, DeterministicAndPermutationInvariant) {
  // Every field is a function of the graph structure, exactly invariant
  // under vertex relabeling.  The init cardinality is held fixed across
  // permutations so deficiency_est compares like with like.
  for (const BipartiteGraph& g : generator_pool()) {
    const index_t init = matching::cheap_matching(g).cardinality();
    const InstanceFeatures base = compute_features(g, init);
    const InstanceFeatures again = compute_features(g, init);
    EXPECT_EQ(base.rows, again.rows);
    EXPECT_DOUBLE_EQ(base.degree_skew, again.degree_skew);  // determinism
    EXPECT_EQ(base.rows, g.num_rows());
    EXPECT_EQ(base.cols, g.num_cols());
    EXPECT_EQ(base.edges, g.num_edges());
    EXPECT_GE(base.deficiency_est, 0.0);
    EXPECT_LE(base.deficiency_est, 1.0);
    if (g.num_edges() > 0) EXPECT_GE(base.degree_skew, 1.0);

    for (std::uint64_t perm_seed = 1; perm_seed <= 3; ++perm_seed) {
      const InstanceFeatures p =
          compute_features(graph::permute_vertices(g, perm_seed), init);
      EXPECT_EQ(p.rows, base.rows);
      EXPECT_EQ(p.cols, base.cols);
      EXPECT_EQ(p.edges, base.edges);
      EXPECT_DOUBLE_EQ(p.density, base.density);
      EXPECT_DOUBLE_EQ(p.avg_degree, base.avg_degree);
      EXPECT_DOUBLE_EQ(p.degree_skew, base.degree_skew);
      EXPECT_DOUBLE_EQ(p.deficiency_est, base.deficiency_est);
    }
  }
}

TEST(Features, BucketKeyRoundTripsAndDistanceIsAMetricAxisWeight) {
  const BucketId b{.size = 4, .degree = 2, .skew = 1, .deficiency = 2};
  EXPECT_EQ(b.key(), "s4.d2.k1.f2");
  BucketId parsed;
  ASSERT_TRUE(BucketId::parse(b.key(), parsed));
  EXPECT_EQ(parsed, b);
  for (const std::string& bad :
       {"", "s4.d2.k1", "s4.d2.k1.f2.x9", "sA.d2.k1.f2", "4.2.1.2"}) {
    BucketId out;
    EXPECT_FALSE(BucketId::parse(bad, out)) << bad;
  }
  EXPECT_EQ(b.distance(b), 0);
  // Size is the cheapest axis to cross; degree and skew the dearest.
  const BucketId size_off{.size = 5, .degree = 2, .skew = 1, .deficiency = 2};
  const BucketId skew_off{.size = 4, .degree = 2, .skew = 2, .deficiency = 2};
  EXPECT_LT(b.distance(size_off), b.distance(skew_off));
}

// ----------------------------------------------------------- cost model ----

TEST(CostModel, JsonRoundTripIsByteIdentical) {
  CostModel m;
  m.record("s4.d2.k1.f2", "hk", 1.25);
  m.record("s4.d2.k1.f2", "hk", 0.75);  // running mean -> 1.0
  m.record("s4.d2.k1.f2", "g-pr-shr:k=1.5", 3.0e-7);
  m.record("s7.d0.k0.f0", "seq-pr", 12345.678901234567);
  const std::string once = m.to_json();
  const CostModel reparsed = CostModel::from_json(once);
  EXPECT_EQ(reparsed.to_json(), once);
  ASSERT_NE(reparsed.find("s4.d2.k1.f2"), nullptr);
  const CostEntry& hk = reparsed.find("s4.d2.k1.f2")->at("hk");
  EXPECT_DOUBLE_EQ(hk.us_per_edge, 1.0);
  EXPECT_EQ(hk.samples, 2);

  // The committed embedded table round-trips the same way — this is what
  // keeps `policy_calibrate --emit-inc` output diffable.
  const CostModel& dflt = CostModel::embedded_default();
  ASSERT_FALSE(dflt.empty());
  EXPECT_EQ(CostModel::from_json(dflt.to_json()).to_json(), dflt.to_json());

  EXPECT_THROW((void)CostModel::from_json("not json"), std::invalid_argument);
  EXPECT_THROW((void)CostModel::from_json("{\"buckets\": [}"),
               std::invalid_argument);
}

TEST(CostModel, NearestBucketFallbackIsDeterministic) {
  CostModel m;
  m.record("s4.d2.k1.f2", "hk", 1.0);
  m.record("s8.d0.k0.f0", "seq-pr", 2.0);
  // Exact hit.
  const auto* exact = m.lookup({.size = 4, .degree = 2, .skew = 1,
                                .deficiency = 2});
  ASSERT_NE(exact, nullptr);
  EXPECT_TRUE(exact->count("hk"));
  // A bucket near the first cell falls back to it, not the far one.
  const auto* near = m.lookup({.size = 5, .degree = 2, .skew = 1,
                               .deficiency = 2});
  ASSERT_NE(near, nullptr);
  EXPECT_TRUE(near->count("hk"));
  EXPECT_EQ(CostModel{}.lookup({}), nullptr);
}

// ---------------------------------------------------------- auto solver ----

TEST(AutoSolver, ResolvesToAValidRegisteredSpecEverywhere) {
  // Whatever the features, resolution must land on a registered,
  // instantiable, exact spec — and running the resolved solver must give
  // the true maximum cardinality.
  ASSERT_TRUE(SolverRegistry::instance().contains("auto"));
  const AutoSolver solver;
  device::Device dev({.mode = device::ExecMode::kConcurrent,
                      .num_threads = 2});
  for (const BipartiteGraph& g : generator_pool()) {
    const matching::Matching init = matching::cheap_matching(g);
    const InstanceFeatures f = compute_features(g, init.cardinality());
    const AutoSolver::Resolved r = solver.resolve(f);
    EXPECT_NE(r.spec.name, "auto");
    EXPECT_EQ(r.spec.resolved_from, "auto");
    ASSERT_NE(r.solver, nullptr);
    EXPECT_TRUE(SolverRegistry::instance().contains(r.spec.name))
        << r.spec.canonical();

    const SolveContext ctx{.device = &dev, .threads = 2};
    const SolveResult out = solver.run(ctx, g, init);
    const index_t truth = matching::reference_maximum_cardinality(g);
    EXPECT_EQ(out.stats.cardinality, truth);
    EXPECT_TRUE(matching::is_maximum(g, out.matching));
    // The choice is reported in the stats detail ("auto -> <spec> ...").
    EXPECT_EQ(out.stats.detail.rfind("auto -> ", 0), 0u) << out.stats.detail;
  }
}

TEST(AutoSolver, OptionValidation) {
  const auto spec = SolverSpec::parse("auto:explore=0.25");
  EXPECT_NE(spec.instantiate(), nullptr);
  AutoSolver s;
  EXPECT_TRUE(s.set_option("explore", "0.5"));
  EXPECT_DOUBLE_EQ(s.explore(), 0.5);
  EXPECT_THROW((void)s.set_option("explore", "1.5"), std::invalid_argument);
  EXPECT_THROW((void)s.set_option("explore", "nope"), std::invalid_argument);
  EXPECT_THROW((void)s.set_option("model", "/no/such/model.json"),
               std::runtime_error);
  EXPECT_FALSE(s.set_option("unknown-key", "x"));
}

TEST(PolicyEngine, EpsilonGreedyConvergesOnTheTrulyFastSolver) {
  // Plant a model whose table favours "pf" (0.5 us/edge vs hk's 1.0), but
  // make the *measured* truth the opposite: hk is 10x faster.  Concurrent
  // choose/observe workers with explore=0.2 must re-measure both arms and
  // flip the favourite — online estimates outrank the table once sampled.
  // Under TSan this doubles as the engine's race stress.
  InstanceFeatures f;
  f.rows = f.cols = 4096;
  f.edges = 1 << 15;
  f.density = static_cast<double>(f.edges) /
              (static_cast<double>(f.rows) * static_cast<double>(f.cols));
  f.avg_degree = 8.0;
  f.degree_skew = 1.5;
  f.deficiency_est = 0.01;
  const std::string bucket = bucket_of(f).key();

  CostModel planted;
  planted.record(bucket, "hk", 1.0);
  planted.record(bucket, "pf", 0.5);  // the table's (wrong) favourite
  PolicyEngine engine(planted);

  const auto truth_ms = [&](const std::string& spec) {
    const double us_per_edge = spec == "hk" ? 0.1 : 1.0;
    return us_per_edge * static_cast<double>(f.edges) / 1000.0;
  };

  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < 200; ++i) {
        const PolicyEngine::Choice c = engine.choose(f, 0.2);
        EXPECT_EQ(c.bucket, bucket);
        engine.observe(f, c.spec.canonical(), truth_ms(c.spec.canonical()));
      }
    });
  }
  for (std::thread& t : workers) t.join();

  // Exploitation now picks the measured winner, not the table's.
  const PolicyEngine::Choice final_choice = engine.choose(f, 0.0);
  EXPECT_EQ(final_choice.spec.canonical(), "hk");
  EXPECT_TRUE(final_choice.from_online);
  EXPECT_FALSE(final_choice.explored);

  // Both arms were actually measured (explore kept the loser fresh).
  const auto online = engine.online_snapshot();
  ASSERT_EQ(online.size(), 2u);
  for (const auto& e : online) {
    EXPECT_EQ(e.bucket, bucket);
    EXPECT_GT(e.samples, 0);
  }
  engine.reset_online();
  EXPECT_TRUE(engine.online_snapshot().empty());
}

TEST(PolicyEngine, FallsBackToTheExactPoolOnAnEmptyModel) {
  PolicyEngine engine{CostModel{}};
  InstanceFeatures f;
  f.rows = f.cols = 100;
  f.edges = 500;
  const PolicyEngine::Choice c = engine.choose(f, 0.0);
  EXPECT_TRUE(c.fallback);
  const auto& pool = PolicyEngine::fallback_pool();
  EXPECT_NE(std::find(pool.begin(), pool.end(), c.spec.canonical()),
            pool.end());
  for (const std::string& name : pool)
    EXPECT_NE(SolverRegistry::instance().create(
                  SolverSpec::parse(name).name), nullptr) << name;
}

// ------------------------------------------------- cache-sharing seam ------

TEST(SolverSpec, ResolvedFromIsProvenanceNotIdentity) {
  SolverSpec spec = SolverSpec::parse("hk");
  const std::string plain = spec.canonical();
  spec.resolved_from = "auto";
  EXPECT_EQ(spec.canonical(), plain);
}

TEST(Service, AutoSharesResultCacheEntriesWithExplicitRequests) {
  // Pin the global engine to a model whose only candidate is "hk", so auto
  // deterministically resolves to it; an explicit hk solve must then serve
  // the subsequent auto request straight from the result cache — the whole
  // point of excluding resolved_from from the cache key.
  PolicyEngine& engine = PolicyEngine::global();
  const CostModel saved = engine.model_snapshot();
  engine.reset_online();

  const auto g = gen::random_uniform(300, 310, 1500, 11);
  const index_t init = matching::cheap_matching(g).cardinality();
  CostModel pinned;
  pinned.record(bucket_of(compute_features(g, init)).key(), "hk", 1.0);
  engine.set_model(pinned);

  serve::MatchingService svc(
      {.workers = 1, .cache = std::make_shared<serve::ResultCache>()});
  const auto handle = svc.add_instance("g", g).handle;
  const auto submit = [&](const std::string& spec) {
    serve::Submission sub = svc.submit(
        {.instance = handle, .spec = SolverSpec::parse(spec)});
    EXPECT_TRUE(sub.accepted) << sub.reason;
    return sub.future.get();
  };

  const serve::Response direct = submit("hk");
  EXPECT_TRUE(direct.ok) << direct.error;
  EXPECT_FALSE(direct.cached);
  EXPECT_EQ(direct.solver, "hk");
  EXPECT_TRUE(direct.resolved_from.empty());

  const serve::Response via_auto = submit("auto:explore=0");
  EXPECT_TRUE(via_auto.ok) << via_auto.error;
  EXPECT_TRUE(via_auto.cached);  // the seam under test
  EXPECT_EQ(via_auto.solver, "hk");
  EXPECT_EQ(via_auto.resolved_from, "auto:explore=0");
  EXPECT_EQ(via_auto.stats.cardinality, direct.stats.cardinality);

  engine.set_model(saved);
  engine.reset_online();
}

}  // namespace
}  // namespace bpm::policy
