// policy::{InstanceFeatures, CostModel, AutoSolver} (src/policy/): feature
// determinism and permutation invariance, cost-model JSON round trips (byte
// identity — the committed table must be diffable), auto resolution
// validity across the generator pool, resolution as a pure function of
// (features, model) that served traffic never changes (TSan-stressable),
// and dispatch-time resolution that lets auto requests share result-cache
// entries with explicit ones.

#include <gtest/gtest.h>

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
  // keeps `auto_policy --emit-inc` output diffable.
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
  device::Device dev({.num_threads = 2});
  for (const BipartiteGraph& g : generator_pool()) {
    const matching::ValidMatching init = matching::cheap_matching(g);
    const InstanceFeatures f = compute_features(g, init.cardinality());
    const AutoSolver::Resolved r = solver.resolve(f);
    EXPECT_NE(r.spec.name, "auto");
    ASSERT_NE(r.solver, nullptr);
    EXPECT_TRUE(SolverRegistry::instance().contains(r.spec.name))
        << r.spec.canonical();

    const SolveContext ctx{.device = &dev};
    const SolveResult out = solver.run(ctx, g, init);
    const index_t truth = matching::reference_maximum_cardinality(g);
    EXPECT_EQ(out.stats.cardinality, truth);
    EXPECT_TRUE(matching::is_maximum(g, out.matching));
    // The choice is reported in the stats detail ("auto -> <spec> ...").
    EXPECT_EQ(out.stats.detail.rfind("auto -> ", 0), 0u) << out.stats.detail;
  }
}

TEST(AutoSolver, TakesNoOptions) {
  // `auto` is a pure table lookup: nothing a client can set changes it.
  // The rejection names the option and happens before any value is used
  // (a `model=` path is never opened).
  for (const std::string spec :
       {"auto:model=/no/such", "auto:model=/dev/zero", "auto:k=1.5"}) {
    try {
      (void)SolverSpec::parse(spec).instantiate();
      ADD_FAILURE() << spec << " was accepted";
    } catch (const std::invalid_argument& e) {
      const std::string key = spec.substr(5, spec.find('=') - 5);
      EXPECT_NE(std::string(e.what()).find("option '" + key + "'"),
                std::string::npos)
          << e.what();
    }
  }
  AutoSolver s;
  EXPECT_FALSE(s.set_option("model", "/no/such/model.json"));
  EXPECT_FALSE(s.set_option("seed", "1"));
}

TEST(AutoSolver, PicksTheCheapestSpecOfTheBucket) {
  InstanceFeatures f;
  f.rows = f.cols = 4096;
  f.edges = 1 << 15;
  f.avg_degree = 8.0;
  f.degree_skew = 1.5;
  f.deficiency_est = 0.01;
  CostModel m;
  m.record(bucket_of(f).key(), "hk", 1.0);
  m.record(bucket_of(f).key(), "pf", 0.5);
  m.record(bucket_of(f).key(), "seq-pr", 0.5);  // tie: map order keeps pf
  const AutoSolver::Resolved r = AutoSolver(m).resolve(f);
  EXPECT_EQ(r.spec.canonical(), "pf");
  EXPECT_EQ(r.bucket, bucket_of(f).key());
  EXPECT_FALSE(r.fallback);
}

TEST(AutoSolver, FallsBackToGprWbOnAnEmptyModel) {
  InstanceFeatures f;
  f.rows = f.cols = 100;
  f.edges = 500;
  const AutoSolver::Resolved r = AutoSolver(CostModel{}).resolve(f);
  EXPECT_TRUE(r.fallback);
  EXPECT_EQ(r.spec.canonical(), "g-pr-wb");
  EXPECT_NE(r.solver, nullptr);
}

TEST(AutoSolver, ResolutionIgnoresServedTraffic) {
  // Explicit solves of other specs on the same instance must not move
  // auto's pick, and concurrent resolutions agree.  Under TSan this is
  // the race check on resolution from many serving threads.
  const auto g = gen::random_uniform(300, 310, 1500, 11);
  serve::MatchingService svc({.workers = 2});
  const auto handle = svc.add_instance("g", g).handle;
  const InstanceFeatures f = svc.instances().get(handle).features;
  const AutoSolver solver;
  const std::string before = solver.resolve(f).spec.canonical();

  std::vector<serve::Submission> subs;
  for (const std::string spec : {"hk", "pf", "seq-pr", "hkdw", "hk"}) {
    if (spec == before) continue;
    subs.push_back(svc.submit({.instance = handle,
                               .spec = SolverSpec::parse(spec)}));
    ASSERT_TRUE(subs.back().accepted) << subs.back().reason;
  }
  for (serve::Submission& sub : subs)
    EXPECT_TRUE(sub.future.get().ok);

  std::vector<std::string> after(4);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < after.size(); ++t)
    threads.emplace_back(
        [&, t] { after[t] = solver.resolve(f).spec.canonical(); });
  for (std::thread& t : threads) t.join();
  for (const std::string& spec : after) EXPECT_EQ(spec, before);
}

// ------------------------------------------------- cache-sharing seam ------

TEST(Service, AutoSharesResultCacheEntriesWithExplicitRequests) {
  // Solve the spec auto resolves to explicitly first; the auto request
  // must then be served straight from the result cache: the service keys
  // the cache by the resolved spec, and keeps `auto` only as provenance.
  const auto g = gen::random_uniform(300, 310, 1500, 11);
  serve::MatchingService svc(
      {.workers = 1, .cache = std::make_shared<serve::ResultCache>()});
  const auto handle = svc.add_instance("g", g).handle;
  const std::string expected =
      AutoSolver{}.resolve(svc.instances().get(handle).features)
          .spec.canonical();
  const auto submit = [&](const std::string& spec) {
    serve::Submission sub = svc.submit(
        {.instance = handle, .spec = SolverSpec::parse(spec)});
    EXPECT_TRUE(sub.accepted) << sub.reason;
    return sub.future.get();
  };

  const serve::Response direct = submit(expected);
  EXPECT_TRUE(direct.ok) << direct.error;
  EXPECT_FALSE(direct.cached);
  EXPECT_EQ(direct.solver, expected);
  EXPECT_TRUE(direct.resolved_from.empty());

  const serve::Response via_auto = submit("auto");
  EXPECT_TRUE(via_auto.ok) << via_auto.error;
  EXPECT_TRUE(via_auto.cached);  // the seam under test
  EXPECT_EQ(via_auto.solver, expected);
  EXPECT_EQ(via_auto.resolved_from, "auto");
  EXPECT_EQ(via_auto.stats.cardinality, direct.stats.cardinality);
}

}  // namespace
}  // namespace bpm::policy
