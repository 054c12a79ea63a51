// Tests of the benchmark harness itself (bench/harness_common):
// instance building, per-algorithm runners and their embedded
// certificate check — the machinery every reported harness number passes
// through.

#include <gtest/gtest.h>

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
    EXPECT_EQ(bi.init.row_match, cheap.row_match) << meta.name;
    EXPECT_EQ(bi.init.col_match, cheap.col_match) << meta.name;
    EXPECT_EQ(bi.initial_cardinality, cheap.cardinality()) << meta.name;
  }
}

TEST(Harness, BuildSuiteHonoursStride) {
  SuiteOptions opt = tiny_options();
  opt.stride = 14;
  const auto suite = build_suite(opt);
  ASSERT_EQ(suite.size(), 2u);
  EXPECT_EQ(suite[0].meta.id, 1);
  EXPECT_EQ(suite[1].meta.id, 15);
}

TEST(Harness, RunnersReportOkAndConsistentCardinalities) {
  const auto& meta = graph::paper_instances()[3];  // flickr analogue
  const BuiltInstance bi = build_instance(meta, tiny_options());
  device::Device dev({.num_threads = 4});

  const AlgoResult gpr = run_solver("g-pr-shr", dev, bi);
  const AlgoResult ghkdw = run_solver("g-hkdw", dev, bi);
  const AlgoResult pdbfs = run_solver("p-dbfs", dev, bi, 4);
  const AlgoResult pr = run_solver("seq-pr", dev, bi);

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
       {"test-mutant:mode=minus-one", "test-mutant:mode=stats-lie",
        "test-mutant:mode=invalid", "test-mutant:mode=one-sided",
        "test-mutant:mode=throw"})
    EXPECT_FALSE(accepted(spec)) << spec;
  EXPECT_TRUE(accepted("test-mutant:mode=minus-one,exact=0"));
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
  const AlgoResult r_small = run_solver("g-pr-shr", dev, bi_small);
  const AlgoResult r_large = run_solver("g-pr-shr", dev, bi_large);
  EXPECT_TRUE(r_small.ok);
  EXPECT_TRUE(r_large.ok);
  EXPECT_GT(r_large.modeled_seconds, r_small.modeled_seconds);
}

}  // namespace
}  // namespace bpm::bench
