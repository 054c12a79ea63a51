// Batched matching pipeline (core/pipeline.hpp): (instance × solver) job
// grids match single-run results, aggregate stats add up, certificate-only
// verification catches non-maximum, miscounted and invalid results, and
// the shared init is built exactly once per instance — including on a
// concurrent device.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "graph/generators.hpp"
#include "matching/greedy.hpp"
#include "matching/hopcroft_karp.hpp"
#include "matching/verify.hpp"
#include "mutant_solver.hpp"
#include "obs/trace.hpp"
#include "valid_init.hpp"

namespace bpm {
namespace {

namespace gen = graph::gen;
using graph::BipartiteGraph;
using graph::index_t;

std::vector<std::pair<std::string, BipartiteGraph>> suite() {
  return {{"uniform", gen::random_uniform(400, 420, 2000, 5)},
          {"planted", gen::planted_perfect(300, 2.0, 9)},
          {"power-law", gen::chung_lu(500, 500, 4.0, 2.4, 21)}};
}

const std::vector<std::string> kSolvers = {"g-pr-shr", "hk", "p-dbfs",
                                           "seq-pr"};

TEST(Pipeline, RunsTheFullJobGridWithVerifiedResults) {
  MatchingPipeline pipe({.device_threads = 4});
  for (auto& [name, g] : suite()) pipe.add_instance(name, std::move(g));
  ASSERT_EQ(pipe.instances().size(), 3u);

  const PipelineReport report = pipe.run(kSolvers);
  EXPECT_TRUE(report.all_ok());
  ASSERT_EQ(report.jobs.size(), 12u);  // 3 instances x 4 solvers
  EXPECT_EQ(report.totals.jobs, 12u);
  EXPECT_EQ(report.totals.failed, 0u);

  // Instance-major order, every job maximum for its instance by the
  // independent reference oracle.
  std::vector<index_t> maximum;
  for (const PipelineInstance& inst : pipe.instances())
    maximum.push_back(matching::reference_maximum_cardinality(inst.graph));
  for (std::size_t i = 0; i < report.jobs.size(); ++i) {
    const PipelineJob& job = report.jobs[i];
    EXPECT_EQ(job.instance, i / kSolvers.size());
    EXPECT_EQ(job.solver, kSolvers[i % kSolvers.size()]);
    EXPECT_TRUE(job.ok) << job.solver << ": " << job.error;
    EXPECT_EQ(job.stats.cardinality, maximum[job.instance]);
  }
}

TEST(Pipeline, MatchesSingleRunResultsAndSharesTheGreedyInit) {
  MatchingPipeline pipe({.device_threads = 2});
  for (auto& [name, g] : suite()) pipe.add_instance(name, std::move(g));

  for (const PipelineInstance& inst : pipe.instances()) {
    // The shared init is admission's default Karp–Sipser matching, built
    // once (the paper's cheap greedy one only where a harness asks).
    EXPECT_EQ(inst.initial_cardinality,
              matching::karp_sipser(inst.graph).cardinality());
    EXPECT_EQ(inst.init.cardinality(), inst.initial_cardinality);
    // Admission runs no reference solve: results are verified by
    // certificate, so the field stays at its unset value.
    EXPECT_EQ(inst.maximum_cardinality, -1);
  }

  const PipelineReport report = pipe.run(kSolvers);
  ASSERT_TRUE(report.all_ok());
  // Each job's cardinality equals a direct single run of the same solver
  // from the same shared init (all solvers are exact here, so equality of
  // cardinality is the right notion of "matches single-run results").
  device::Device dev({.num_threads = 2});
  const SolveContext ctx{.device = &dev};
  for (const PipelineJob& job : report.jobs) {
    const PipelineInstance& inst = pipe.instances()[job.instance];
    const SolveResult single = solve(job.solver, ctx, inst.graph, inst.init);
    EXPECT_EQ(job.stats.cardinality, single.stats.cardinality)
        << job.solver << " on " << inst.name;
    EXPECT_EQ(job.stats.cardinality,
              matching::reference_maximum_cardinality(inst.graph))
        << job.solver << " on " << inst.name;
  }
}

TEST(Pipeline, TotalsAggregateThePerJobStats) {
  MatchingPipeline pipe({.device_threads = 2});
  for (auto& [name, g] : suite()) pipe.add_instance(name, std::move(g));
  const PipelineReport report = pipe.run({"g-pr-shr", "g-hkdw", "pf"});

  std::int64_t pairs = 0, launches = 0;
  double wall = 0.0, modeled = 0.0;
  for (const PipelineJob& job : report.jobs) {
    pairs += job.stats.cardinality;
    launches += job.stats.device_launches;
    wall += job.stats.wall_ms;
    modeled += job.stats.modeled_ms;
  }
  EXPECT_EQ(report.totals.matched_pairs, pairs);
  EXPECT_EQ(report.totals.device_launches, launches);
  EXPECT_DOUBLE_EQ(report.totals.wall_ms, wall);
  EXPECT_DOUBLE_EQ(report.totals.modeled_ms, modeled);
  EXPECT_GT(report.totals.device_launches, 0);  // two device solvers ran
  EXPECT_GT(report.totals.modeled_ms, 0.0);
}

TEST(Pipeline, HeuristicSolversVerifyAsValidNotMaximum) {
  test_support::register_mutant_solver();
  MatchingPipeline pipe;
  // planted_perfect guarantees max = n; greedy from an empty init will not
  // reach it on this graph shape, yet must still verify (valid and <= max).
  // A heuristic one pair short of maximum is a legitimate answer too.
  pipe.add_instance("planted", gen::planted_perfect(300, 2.0, 9));
  const PipelineReport report =
      pipe.run({"greedy", "karp-sipser", "test-mutant:exact=0"});
  EXPECT_TRUE(report.all_ok());
  const index_t maximum =
      matching::reference_maximum_cardinality(pipe.instances().front().graph);
  EXPECT_EQ(maximum, 300);
  for (const PipelineJob& job : report.jobs)
    EXPECT_LE(job.stats.cardinality, maximum);
  EXPECT_EQ(report.jobs.back().stats.cardinality, maximum - 1);
  // No heuristic proves the maximum, and on a proven instance a heuristic
  // is still held to validity only.
  const PipelineInstance& inst = pipe.instances().front();
  EXPECT_EQ(inst.proven_maximum.get(), ProvenMaximum::kUnproven);
  EXPECT_TRUE(pipe.run({"hk", "test-mutant:exact=0"}).all_ok());
  EXPECT_EQ(inst.proven_maximum.get(), maximum);
}

TEST(Pipeline, RecordsFailuresInsteadOfAborting) {
  // A deliberately broken solver: claims exactness, returns the init
  // unchanged — verification must flag every job, not throw.  The
  // Karp–Sipser init is already maximum on this graph, so the batch starts
  // every job from the empty matching instead.
  class NoopSolver final : public Solver {
   public:
    [[nodiscard]] std::string name() const override { return "test-noop"; }
    [[nodiscard]] SolverCaps caps() const override { return {}; }
    [[nodiscard]] Output solve_impl(
        const SolveContext&, const graph::BipartiteGraph&,
        const matching::ValidMatching& init) const override {
      return {init};
    }
  };
  static bool registered = [] {
    SolverRegistry::instance().add(
        "test-noop", [] { return std::make_unique<NoopSolver>(); });
    return true;
  }();
  (void)registered;

  MatchingPipeline pipe({.share_init = false});
  pipe.add_instance("uniform", gen::random_uniform(400, 420, 2000, 5));
  const PipelineReport report = pipe.run({"test-noop", "hk"});
  ASSERT_EQ(report.jobs.size(), 2u);
  EXPECT_FALSE(report.all_ok());
  EXPECT_EQ(report.totals.failed, 1u);
  EXPECT_FALSE(report.jobs[0].ok);
  EXPECT_NE(report.jobs[0].error.find("Berge certificate failed"),
            std::string::npos)
      << report.jobs[0].error;
  EXPECT_TRUE(report.jobs[1].ok);
}

TEST(Pipeline, UnknownSolverNameFailsTheWholeBatchUpFront) {
  MatchingPipeline pipe;
  pipe.add_instance("k44", gen::complete_bipartite(4, 4));
  EXPECT_THROW((void)pipe.run({"hk", "no-such-solver"}),
               std::invalid_argument);
}

TEST(Pipeline, InitBuilderAndNoShareInitAreHonoured) {
  // The paper's cheap init, opted into as the harnesses do; on this graph
  // it is smaller than the Karp–Sipser default, so the builder really ran.
  PipelineOptions cheap;
  cheap.init_builder = matching::cheap_matching;
  MatchingPipeline with_cheap(cheap);
  const BipartiteGraph g = gen::chung_lu(500, 500, 4.0, 2.4, 21);
  with_cheap.add_instance("g", g);
  EXPECT_EQ(with_cheap.instances().front().initial_cardinality,
            matching::cheap_matching(g).cardinality());
  EXPECT_LT(with_cheap.instances().front().initial_cardinality,
            matching::karp_sipser(g).cardinality());

  MatchingPipeline cold({.share_init = false});
  cold.add_instance("g", g);
  EXPECT_EQ(cold.instances().front().initial_cardinality, 0);
  const PipelineReport report = cold.run({"hk"});
  EXPECT_TRUE(report.all_ok());
}

// Admission holds only proven inits, since every job's certificate looks up
// only the pairs its solve changed.  A builder hands over a
// `ValidMatching`, so an invalid matching fails its proof inside the
// admission, not in some later job.
TEST(Pipeline, AdmissionRejectsAnInvalidInit) {
  const BipartiteGraph g = gen::random_uniform(60, 60, 240, 3);
  const auto one_sided = [](const BipartiteGraph& graph) {
    matching::Matching m = matching::cheap_matching(graph);
    for (std::size_t u = 0; u < m.row_match.size(); ++u)
      if (m.row_match[u] != matching::kUnmatched) {
        m.col_match[m.row_match[u]] = matching::kUnmatched;
        break;
      }
    return m;
  };
  const auto wrong_shape = [](const BipartiteGraph&) {
    return matching::Matching(gen::empty_graph(3, 3));
  };
  for (const auto& make :
       std::vector<std::function<matching::Matching(const BipartiteGraph&)>>{
           one_sided, wrong_shape}) {
    test_support::expect_rejected(g, make(g));
    PipelineOptions options;
    options.init_builder = [&](const BipartiteGraph& graph) {
      return matching::ValidMatching(graph, make(graph));
    };
    EXPECT_THROW((void)admit_instance("g", g, options), std::invalid_argument);
    MatchingPipeline pipe(options);
    EXPECT_THROW((void)pipe.add_instance("g", g), std::invalid_argument);
    EXPECT_TRUE(pipe.instances().empty());
  }
}

// ---- certificate-only verification: mutation tests -------------------------

/// Each of `report.jobs[first ..]` is `kMutants` in order, `ok == false`
/// with the check that caught it named in the error.
void expect_mutants_rejected(const PipelineReport& report, std::size_t first) {
  ASSERT_GE(report.jobs.size(), first + test_support::kMutants.size());
  for (std::size_t i = 0; i < test_support::kMutants.size(); ++i) {
    const PipelineJob& job = report.jobs[first + i];
    EXPECT_FALSE(job.ok) << job.solver;
    EXPECT_NE(job.error.find(test_support::kMutants[i].second),
              std::string::npos)
        << job.solver << ": " << job.error;
  }
}

std::vector<std::string> mutant_specs() {
  std::vector<std::string> specs;
  for (const auto& [spec, error] : test_support::kMutants)
    specs.push_back(spec);
  return specs;
}

// Each mutant must come back `ok == false` with the check that caught it
// named in the error; the honest `hk` control beside them is verified.
// Every mutant runs before any honest solve, so each exact one meets the
// Berge search.
TEST(Pipeline, CertificateRejectsMutants) {
  test_support::register_mutant_solver();
  MatchingPipeline pipe;
  pipe.add_instance("uniform", gen::random_uniform(400, 420, 2000, 5));
  std::vector<std::string> specs = mutant_specs();
  specs.push_back("hk");

  const PipelineReport report = pipe.run(specs);
  ASSERT_EQ(report.jobs.size(), specs.size());
  EXPECT_EQ(report.totals.failed, test_support::kMutants.size());
  expect_mutants_rejected(report, 0);
  EXPECT_TRUE(report.jobs.back().ok) << report.jobs.back().error;
}

// Once an honest `hk` job has proven the instance's maximum, later exact
// jobs are checked against it instead of by a Berge search: every mutant
// is still rejected with the same error, and honest jobs still pass.
TEST(Pipeline, ProvenMaximumStillRejectsEveryMutant) {
  test_support::register_mutant_solver();
  MatchingPipeline pipe;
  pipe.add_instance("uniform", gen::random_uniform(400, 420, 2000, 5));
  const PipelineInstance& inst = pipe.instances().front();
  EXPECT_EQ(inst.proven_maximum.get(), ProvenMaximum::kUnproven);
  std::vector<std::string> specs = {"hk"};
  for (const std::string& spec : mutant_specs()) specs.push_back(spec);
  specs.push_back("g-pr-shr");

  const PipelineReport report = pipe.run(specs);
  ASSERT_EQ(report.jobs.size(), specs.size());
  EXPECT_TRUE(report.jobs.front().ok) << report.jobs.front().error;
  EXPECT_EQ(inst.proven_maximum.get(),
            matching::reference_maximum_cardinality(inst.graph));
  expect_mutants_rejected(report, 1);
  EXPECT_TRUE(report.jobs.back().ok) << report.jobs.back().error;
  EXPECT_EQ(report.totals.failed, test_support::kMutants.size());
}

// The proof stays with the graph that earned it: copies, moves and
// assignments of an instance start unproven.
TEST(Pipeline, CopiesAndMovesOfAnInstanceStartUnproven) {
  MatchingPipeline pipe;
  pipe.add_instance("a", gen::random_uniform(300, 310, 1500, 11));
  pipe.add_instance("b", gen::planted_perfect(200, 2.0, 9));
  ASSERT_TRUE(pipe.run({"hk"}).all_ok());
  const PipelineInstance& a = pipe.instances()[0];
  const PipelineInstance& b = pipe.instances()[1];
  ASSERT_EQ(a.proven_maximum.get(),
            matching::reference_maximum_cardinality(a.graph));
  ASSERT_EQ(b.proven_maximum.get(), 200);

  PipelineInstance copy = a;
  EXPECT_EQ(copy.proven_maximum.get(), ProvenMaximum::kUnproven);
  const PipelineInstance moved = std::move(copy);
  EXPECT_EQ(moved.proven_maximum.get(), ProvenMaximum::kUnproven);

  // Prove a copy of `b`, then assign `a` over it: the target now holds
  // `a`'s graph and must not keep `b`'s maximum.
  PipelineInstance target = b;
  const std::unique_ptr<Solver> hk = SolverRegistry::instance().create("hk");
  ASSERT_TRUE(run_admitted_job({&target, hk.get(), {}},
                               [&]() -> device::Device& { return pipe.device(); },
                               nullptr, {})
                  .outcome.ok);
  ASSERT_EQ(target.proven_maximum.get(), 200);
  target = a;
  EXPECT_EQ(target.proven_maximum.get(), ProvenMaximum::kUnproven);
  target = b;
  EXPECT_EQ(target.proven_maximum.get(), ProvenMaximum::kUnproven);
}

// `run_verified` trusts a memo only for the graph it was proven on; handed
// another graph's proof, a larger answer fails with its own error (and
// leaves the proof alone) and a smaller one fails as Berge's would.
TEST(Pipeline, AProofIsNeverOverwritten) {
  const std::unique_ptr<Solver> hk = SolverRegistry::instance().create("hk");
  const auto verify = [&](const BipartiteGraph& g, ProvenMaximum& proof) {
    return run_verified(*hk, {}, g, test_support::empty_init(g), true, &proof);
  };
  ProvenMaximum proof;
  ASSERT_TRUE(verify(gen::complete_bipartite(5, 5), proof).ok);
  ASSERT_EQ(proof.get(), 5);

  const JobOutcome larger = verify(gen::complete_bipartite(8, 8), proof);
  EXPECT_FALSE(larger.ok);
  EXPECT_NE(larger.error.find("exceeds the proven maximum 5"),
            std::string::npos)
      << larger.error;
  const JobOutcome smaller = verify(gen::complete_bipartite(3, 3), proof);
  EXPECT_FALSE(smaller.ok);
  EXPECT_NE(smaller.error.find("Berge certificate failed"), std::string::npos)
      << smaller.error;
  EXPECT_TRUE(verify(gen::complete_bipartite(5, 7), proof).ok);
  EXPECT_EQ(proof.get(), 5);
}

// The server's own trace shows what the certificate costs: one `verify`
// span per job (every pipeline job solves), carrying the solver, the
// verdict and how maximality was checked.
TEST(Pipeline, TracedBatchRecordsOneVerifySpanPerJob) {
  test_support::register_mutant_solver();
  obs::Tracer tracer;
  tracer.enable();
  MatchingPipeline pipe({.tracer = &tracer});
  pipe.add_instance("a", gen::random_uniform(300, 310, 1500, 11));
  pipe.add_instance("planted", gen::planted_perfect(200, 2.0, 9));
  const PipelineReport report =
      pipe.run({"hk", "g-pr-shr", "test-mutant:mode=minus-one"});
  tracer.disable();
  ASSERT_EQ(report.jobs.size(), 6u);

  std::size_t spans = 0, rejecting = 0, searched = 0, compared = 0;
  for (const obs::TraceEvent& ev : tracer.events()) {
    if (ev.name != "verify") continue;
    ++spans;
    EXPECT_NE(ev.args.find("\"solver\":"), std::string::npos) << ev.args;
    searched += ev.args.find("\"proof\":\"berge\"") != std::string::npos;
    compared += ev.args.find("\"proof\":\"proven\"") != std::string::npos;
    if (ev.args.find("\"ok\":0") != std::string::npos) {
      ++rejecting;
      EXPECT_NE(ev.args.find("test-mutant"), std::string::npos) << ev.args;
    } else {
      EXPECT_NE(ev.args.find("\"ok\":1"), std::string::npos) << ev.args;
    }
  }
  EXPECT_EQ(spans, report.jobs.size());
  EXPECT_EQ(rejecting, report.totals.failed);
  EXPECT_EQ(report.totals.failed, 2u);
  // `hk` proves each instance; the two jobs after it compare against that.
  EXPECT_EQ(searched, 2u);
  EXPECT_EQ(compared, 4u);
}

// The `changed` arg is the number of answer pairs that differ from the
// shared init: the edge lookups the certificate made.  The cheap init
// leaves HK pairs to change; Karp–Sipser is already maximum here.
TEST(Pipeline, VerifySpanCountsThePairsTheSolveChanged) {
  obs::Tracer tracer;
  tracer.enable();
  MatchingPipeline pipe(
      {.init_builder = matching::cheap_matching, .tracer = &tracer});
  pipe.add_instance("a", gen::random_uniform(300, 310, 1500, 11));
  const PipelineReport report = pipe.run({"hk"});
  tracer.disable();
  ASSERT_TRUE(report.all_ok());

  const PipelineInstance& inst = pipe.instances().front();
  const matching::Matching answer =
      matching::hopcroft_karp(inst.graph, inst.init);
  index_t changed = 0;
  for (std::size_t u = 0; u < answer.row_match.size(); ++u)
    changed += answer.row_match[u] != matching::kUnmatched &&
               answer.row_match[u] != inst.init.get().row_match[u];
  EXPECT_GT(changed, 0);
  std::size_t spans = 0;
  for (const obs::TraceEvent& ev : tracer.events()) {
    if (ev.name != "verify") continue;
    ++spans;
    EXPECT_NE(ev.args.find("\"changed\":" + std::to_string(changed)),
              std::string::npos)
        << ev.args;
  }
  EXPECT_EQ(spans, 1u);
}

TEST(Pipeline, SpecStringsRunEndToEnd) {
  MatchingPipeline pipe({.device_threads = 2});
  pipe.add_instance("g", gen::random_uniform(300, 310, 1500, 11));
  const PipelineReport report =
      pipe.run({"g-pr-shr:k=1.5", "hk", "seq-pr:k=2,gap=1"});
  ASSERT_TRUE(report.all_ok());
  EXPECT_EQ(report.jobs[0].stats.cardinality,
            report.jobs[1].stats.cardinality);
  // Jobs are labelled by canonical spec, so tunings are tellable apart.
  EXPECT_EQ(report.jobs[0].solver, "g-pr-shr:k=1.5");
  EXPECT_EQ(report.jobs[2].solver, "seq-pr:gap=1,k=2");
  EXPECT_THROW((void)pipe.run({"g-pr-shr:k="}), std::invalid_argument);
  EXPECT_THROW((void)pipe.run({"hk:no-such-option=1"}),
               std::invalid_argument);
}

// The acceptance scenario: a batch over an 8-thread device agrees with a
// one-thread batch job for job — the paper's central claim (races change
// schedules, never cardinalities) surfaced at the pipeline level.
TEST(Pipeline, ConcurrentAndSequentialDevicesAgreeJobForJob) {
  const std::vector<std::string> solvers = {"g-pr-shr", "g-pr-first",
                                            "g-hkdw"};
  MatchingPipeline concurrent({.device_threads = 8});
  MatchingPipeline sequential({.device_threads = 1});
  for (auto& [name, g] : suite()) {
    concurrent.add_instance(name, g);
    sequential.add_instance(name, std::move(g));
  }
  const PipelineReport a = concurrent.run(solvers);
  const PipelineReport b = sequential.run(solvers);
  EXPECT_TRUE(a.all_ok());
  EXPECT_TRUE(b.all_ok());
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i)
    EXPECT_EQ(a.jobs[i].stats.cardinality, b.jobs[i].stats.cardinality)
        << a.jobs[i].solver;
}

}  // namespace
}  // namespace bpm
