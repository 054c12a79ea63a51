// Tests of the benchmark harness itself (bench/harness_common):
// instance building, per-algorithm runners and their embedded
// certificate check — the machinery every reported harness number passes
// through.

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "harness_common.hpp"
#include "matching/greedy.hpp"
#include "matching/verify.hpp"
#include "mutant_solver.hpp"

namespace bpm::bench {
namespace {

SuiteOptions tiny_options() {
  SuiteOptions opt;
  opt.scale = 0.001;  // ~1k-vertex instances
  opt.seed = 5;
  return opt;
}

TEST(Harness, BuildInstanceIsConsistent) {
  const auto& meta = graph::paper_instances()[0];
  const BuiltInstance bi = build_instance(meta, tiny_options());
  EXPECT_GE(bi.g.num_rows(), 1024);
  EXPECT_EQ(bi.initial_cardinality, bi.init.cardinality());
}

TEST(Harness, BuildInstanceKeepsThePapersCheapInit) {
  // The paper times every algorithm from the cheap greedy matching; the
  // Table I and Figure 1 shape gates rely on the harnesses keeping it
  // while the pipeline and the service admit with Karp–Sipser.
  for (const auto& meta : graph::paper_instances()) {
    const BuiltInstance bi = build_instance(meta, tiny_options());
    const matching::Matching cheap = matching::cheap_matching(bi.g);
    EXPECT_EQ(bi.init.get().row_match, cheap.row_match) << meta.name;
    EXPECT_EQ(bi.init.get().col_match, cheap.col_match) << meta.name;
    EXPECT_EQ(bi.initial_cardinality, cheap.cardinality()) << meta.name;
  }
}

TEST(Harness, BuildSuiteHonoursStride) {
  SuiteOptions opt = tiny_options();
  opt.stride = 14;
  device::Device dev({.num_threads = 1});
  const auto suite = build_suite(opt, dev);
  ASSERT_EQ(suite.size(), 2u);
  EXPECT_EQ(suite[0].meta.id, 1);
  EXPECT_EQ(suite[1].meta.id, 15);
}

TEST(Harness, BuildSuiteOnThePoolMatchesTheInlineBuild) {
  // The builds run as one batch on the engine's pool; the worker count
  // changes nothing in the suite but the wall time.
  SuiteOptions opt = tiny_options();
  opt.stride = 4;
  device::Device one({.num_threads = 1});
  device::Device four({.num_threads = 4});
  const auto inline_suite = build_suite(opt, one);
  const auto pooled = build_suite(opt, four);
  ASSERT_EQ(pooled.size(), inline_suite.size());
  for (std::size_t i = 0; i < pooled.size(); ++i) {
    const BuiltInstance& a = inline_suite[i];
    const BuiltInstance& b = pooled[i];
    EXPECT_EQ(a.meta.id, b.meta.id);
    EXPECT_EQ(a.g.row_ptr(), b.g.row_ptr()) << a.meta.name;
    EXPECT_EQ(a.g.row_adj(), b.g.row_adj()) << a.meta.name;
    EXPECT_EQ(a.g.col_ptr(), b.g.col_ptr()) << a.meta.name;
    EXPECT_EQ(a.g.col_adj(), b.g.col_adj()) << a.meta.name;
    EXPECT_EQ(a.init.get().row_match, b.init.get().row_match) << a.meta.name;
    EXPECT_EQ(a.init.get().col_match, b.init.get().col_match) << a.meta.name;
  }
}

TEST(Harness, RunnersReportOkAndConsistentCardinalities) {
  const auto& meta = graph::paper_instances()[3];  // flickr analogue
  const BuiltInstance bi = build_instance(meta, tiny_options());
  device::Device dev({.num_threads = 4});

  const auto run = [&](const char* name) {
    return run_solver(*SolverRegistry::instance().create(name), dev, bi);
  };
  const AlgoResult gpr = run("g-pr-shr");
  const AlgoResult ghkdw = run("g-hkdw");
  const AlgoResult pdbfs = run("p-dbfs");
  const AlgoResult pr = run("seq-pr");

  const graph::index_t maximum = matching::reference_maximum_cardinality(bi.g);
  for (const AlgoResult& r : {gpr, ghkdw, pdbfs, pr}) {
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.cardinality, maximum);
    EXPECT_GE(r.seconds, 0.0);
  }
  // Device algorithms carry a modeled time; CPU ones do not.
  EXPECT_GT(gpr.modeled_seconds, 0.0);
  EXPECT_GT(ghkdw.modeled_seconds, 0.0);
  EXPECT_EQ(pdbfs.modeled_seconds, 0.0);
  EXPECT_EQ(pr.modeled_seconds, 0.0);
}

TEST(Harness, RunSolverRejectsEveryMutant) {
  // The harness accepts a result by the same certificate as the pipeline
  // and the service: every mutation fails it, a throwing solver included,
  // and a heuristic is only held to validity.
  test_support::register_mutant_solver();
  const BuiltInstance bi =
      build_instance(graph::paper_instances()[3], tiny_options());
  device::Device dev({.num_threads = 1});
  const auto accepted = [&](const char* spec) {
    return run_solver(*SolverSpec::parse(spec).instantiate(), dev, bi).ok;
  };
  for (const char* spec :
       {"test-mutant:mode=minus-one", "test-mutant:mode=invalid",
        "test-mutant:mode=one-sided", "test-mutant:mode=throw"})
    EXPECT_FALSE(accepted(spec)) << spec;
  EXPECT_TRUE(accepted("test-mutant:mode=minus-one,exact=0"));
}

TEST(Harness, BestOfFailsWhenAnyRepFails) {
  // The fastest rep is reported, but every rep must pass: the first rep
  // here is broken and 50 ms slow, the later ones pass in far less.
  test_support::register_mutant_solver();
  const BuiltInstance bi =
      build_instance(graph::paper_instances()[3], tiny_options());
  device::Device dev({.num_threads = 1});
  const auto flaky =
      SolverSpec::parse("test-mutant:mode=minus-one,first=50").instantiate();
  const AlgoResult best = run_best_of(*flaky, dev, bi, 3);
  EXPECT_FALSE(best.ok);
  EXPECT_LT(best.seconds, 0.05);  // a passing rep was the fastest
  EXPECT_EQ(best.cardinality, matching::reference_maximum_cardinality(bi.g));

  const auto hk = SolverRegistry::instance().create("hk");
  EXPECT_TRUE(run_best_of(*hk, dev, bi, 3).ok);
}

TEST(Harness, FoldKeysByBucketAndSpecAndSkipsAuto) {
  // A grid with `auto` rows folds into a model that never names `auto`
  // (it would resolve to itself); each fixed time lands as us per edge
  // under the instance's bucket and the canonical spec.
  SuiteOptions opt = tiny_options();
  const BuiltInstance a = build_instance(graph::paper_instances()[3], opt);
  const BuiltInstance b = build_instance(graph::paper_instances()[7], opt);
  policy::CostModel model;
  for (const BuiltInstance* bi : {&a, &b})
    for (const char* spec : {"hk", "seq-pr:k=1", "auto"})
      fold_into_model(model, *bi, SolverSpec::parse(spec), 0.002);
  const std::string bucket_a = policy::bucket_of(a.features).key();
  const std::string bucket_b = policy::bucket_of(b.features).key();
  for (const auto& [bucket, specs] : model.buckets()) {
    EXPECT_TRUE(bucket == bucket_a || bucket == bucket_b) << bucket;
    EXPECT_FALSE(specs.contains("auto")) << bucket;
  }
  const policy::CostModel::SpecTable* table = model.find(bucket_a);
  ASSERT_NE(table, nullptr);
  ASSERT_TRUE(table->contains("hk"));
  ASSERT_TRUE(table->contains(SolverSpec::parse("seq-pr:k=1").canonical()));
  if (bucket_a != bucket_b) {
    EXPECT_DOUBLE_EQ(table->at("hk").us_per_edge,
                     0.002 * 1e6 / static_cast<double>(a.features.edges));
  }
}

TEST(Harness, EmittedIncParsesBackToTheFoldedModel) {
  policy::CostModel model;
  model.record("s4.d2.k1.f2", "hk", 0.0125);
  model.record("s4.d2.k1.f2", "g-pr-wb", 0.5);
  model.record("s6.d1.k0.f0", "seq-pr", 12345.678901234567);
  const std::string inc = model_inc(model);
  // The body between the raw-string delimiters is what
  // `CostModel::embedded_default()` parses.
  const std::string open = "R\"bpm_policy_model(";
  const std::string close = ")bpm_policy_model\"\n";
  const std::size_t begin = inc.find(open);
  ASSERT_NE(begin, std::string::npos);
  ASSERT_TRUE(inc.ends_with(close));
  const std::string body = inc.substr(
      begin + open.size(), inc.size() - close.size() - begin - open.size());
  EXPECT_EQ(body, model.to_json());
  EXPECT_EQ(policy::CostModel::from_json(body).to_json(), model.to_json());
  // Everything before the literal is comment: the recipe that made it.
  std::istringstream header(inc.substr(0, begin));
  for (std::string line; std::getline(header, line);)
    EXPECT_TRUE(line.starts_with("//")) << line;
  EXPECT_NE(inc.find("auto_policy --seed 1 --algo " +
                     std::string(kPolicyPool)),
            std::string::npos);
}

TEST(Harness, DeviceSecondsRespectsNoModel) {
  AlgoResult r;
  r.seconds = 2.0;
  r.modeled_seconds = 0.5;
  SuiteOptions opt;
  opt.no_model = false;
  EXPECT_DOUBLE_EQ(device_seconds(r, opt), 0.5);
  opt.no_model = true;
  EXPECT_DOUBLE_EQ(device_seconds(r, opt), 2.0);
  // CPU algorithms (modeled == 0) always use wall time.
  r.modeled_seconds = 0.0;
  opt.no_model = false;
  EXPECT_DOUBLE_EQ(device_seconds(r, opt), 2.0);
}

TEST(Harness, SuiteOptionsRoundTripThroughCli) {
  CliParser cli("t", "t");
  register_suite_flags(cli, /*default_stride=*/3);
  const char* argv[] = {"t", "--scale", "0.5", "--seed", "9", "--threads",
                        "2", "--no-model"};
  cli.parse(8, argv);
  const SuiteOptions opt = suite_options_from_cli(cli);
  EXPECT_DOUBLE_EQ(opt.scale, 0.5);
  EXPECT_EQ(opt.seed, 9u);
  EXPECT_EQ(opt.stride, 3);
  EXPECT_EQ(opt.threads, 2u);
  EXPECT_TRUE(opt.no_model);
}

TEST(Harness, ModeledTimeScalesWithInstanceSize) {
  // The device model must charge more for a bigger instance of the same
  // class — a basic sanity property of the time model.
  SuiteOptions small = tiny_options();
  SuiteOptions large = tiny_options();
  large.scale = 0.004;
  const auto& meta = graph::paper_instances()[6];  // kron analogue
  const BuiltInstance bi_small = build_instance(meta, small);
  const BuiltInstance bi_large = build_instance(meta, large);
  // Sequential device: deterministic loop counts, so the comparison is
  // not subject to race-dependent variance.
  device::Device dev({.num_threads = 1});
  const auto gpr = SolverRegistry::instance().create("g-pr-shr");
  const AlgoResult r_small = run_solver(*gpr, dev, bi_small);
  const AlgoResult r_large = run_solver(*gpr, dev, bi_large);
  EXPECT_TRUE(r_small.ok);
  EXPECT_TRUE(r_large.ok);
  EXPECT_GT(r_large.modeled_seconds, r_small.modeled_seconds);
}

}  // namespace
}  // namespace bpm::bench
