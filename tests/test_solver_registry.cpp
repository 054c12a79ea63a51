// Solver registry (core/solver.hpp): every registered solver resolves by
// name, reports coherent capabilities, honours its tuning knobs, and — the
// registry-level cross-algorithm agreement test — returns a valid maximum
// matching on a shared generator suite.  Any algorithm added to the
// registry is covered by this file with zero test changes.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/solver.hpp"
#include "graph/generators.hpp"
#include "matching/greedy.hpp"
#include "matching/verify.hpp"
#include "valid_init.hpp"

namespace bpm {
namespace {

namespace gen = graph::gen;
using graph::BipartiteGraph;
using graph::index_t;

// The nine seed algorithms the registry must expose (plus whatever else
// future PRs register).
const std::vector<std::string> kSeedNames = {
    "g-pr-shr", "g-pr-first", "g-hkdw", "p-dbfs", "seq-pr",
    "hk",       "hkdw",       "pf",     "greedy",
};

std::vector<BipartiteGraph> generator_suite() {
  std::vector<BipartiteGraph> graphs;
  graphs.push_back(gen::random_uniform(500, 520, 2600, 7));
  graphs.push_back(gen::planted_perfect(400, 2.5, 11));
  graphs.push_back(gen::chung_lu(600, 600, 4.0, 2.3, 13));
  graphs.push_back(gen::trace_mesh(200, 6, 0.05, 17));
  graphs.push_back(gen::complete_bipartite(40, 25));
  graphs.push_back(gen::empty_graph(30, 30));
  return graphs;
}

TEST(SolverRegistry, EverySeedAlgorithmResolvesByName) {
  for (const std::string& name : kSeedNames) {
    EXPECT_TRUE(SolverRegistry::instance().contains(name)) << name;
    const auto solver = SolverRegistry::instance().create(name);
    ASSERT_NE(solver, nullptr) << name;
    EXPECT_EQ(solver->name(), name);
  }
}

TEST(SolverRegistry, AliasesResolveToCanonicalSolvers) {
  EXPECT_EQ(SolverRegistry::instance().create("g-pr")->name(), "g-pr-shr");
  EXPECT_EQ(SolverRegistry::instance().create("pr")->name(), "seq-pr");
  // Aliases are reachable but not listed.
  const auto names = SolverRegistry::instance().names();
  for (const std::string& alias : {"g-pr", "pr"}) {
    EXPECT_TRUE(SolverRegistry::instance().contains(alias));
    EXPECT_EQ(std::count(names.begin(), names.end(), alias), 0) << alias;
  }
}

TEST(SolverRegistry, UnknownNameThrowsListingChoices) {
  try {
    (void)SolverRegistry::instance().create("no-such-solver");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no-such-solver"), std::string::npos);
    EXPECT_NE(what.find("g-pr-shr"), std::string::npos);
  }
}

TEST(SolverRegistry, DuplicateRegistrationThrows) {
  EXPECT_THROW(SolverRegistry::instance().add(
                   "g-pr-shr", [] { return std::unique_ptr<Solver>(); }),
               std::invalid_argument);
  EXPECT_THROW(SolverRegistry::instance().add_alias("pr", "seq-pr"),
               std::invalid_argument);
  EXPECT_THROW(SolverRegistry::instance().add_alias("fresh", "no-such"),
               std::invalid_argument);
}

TEST(SolverRegistry, CapabilitiesMatchTheAlgorithmFamilies) {
  const auto caps = [](const std::string& name) {
    return SolverRegistry::instance().create(name)->caps();
  };
  for (const std::string& name : {"g-pr-shr", "g-pr-noshr", "g-pr-first",
                                  "g-pr-wb", "g-hk", "g-hkdw", "auto"}) {
    EXPECT_TRUE(caps(name).needs_device) << name;
    EXPECT_TRUE(caps(name).exact) << name;
  }
  for (const std::string& name : {"p-dbfs", "seq-pr", "hk", "hkdw", "pf"}) {
    EXPECT_FALSE(caps(name).needs_device) << name;
    EXPECT_TRUE(caps(name).exact) << name;
  }
  for (const std::string& name : {"greedy", "karp-sipser"}) {
    EXPECT_FALSE(caps(name).needs_device) << name;
    EXPECT_FALSE(caps(name).exact) << name;
  }
}

// `Solver::run` writes the stats every solver shares: the cardinality is
// the returned matching's, and the device charge is exactly what the
// stream counted during the run — nothing for a CPU solver.
TEST(SolverRegistry, RunReportsTheMatchingAndTheStreamsOwnCounts) {
  const BipartiteGraph g = gen::random_uniform(200, 210, 900, 5);
  device::Device dev({.num_threads = 1});
  const SolveContext ctx{.device = &dev};
  const matching::ValidMatching init = matching::cheap_matching(g);
  for (const std::string& name : SolverRegistry::instance().names()) {
    const auto solver = SolverRegistry::instance().create(name);
    const std::uint64_t launches_before = dev.launches();
    const double modeled_before = dev.modeled_ms();
    const SolveResult r = solver->run(ctx, g, init);
    EXPECT_EQ(r.stats.cardinality, r.matching.cardinality()) << name;
    EXPECT_EQ(r.stats.device_launches,
              static_cast<std::int64_t>(dev.launches() - launches_before))
        << name;
    EXPECT_EQ(r.stats.modeled_ms, dev.modeled_ms() - modeled_before) << name;
    if (!solver->caps().needs_device) {
      EXPECT_EQ(r.stats.device_launches, 0) << name;
      EXPECT_EQ(r.stats.modeled_ms, 0.0) << name;
    }
  }
}

TEST(SolverRegistry, DeviceSolverWithoutDeviceThrows) {
  const BipartiteGraph g = gen::complete_bipartite(4, 4);
  const SolveContext no_device;
  EXPECT_THROW(
      (void)solve("g-pr-shr", no_device, g, test_support::empty_init(g)),
      std::invalid_argument);
}

TEST(SolverRegistry, SetOptionAcceptsKnownRejectsUnknownKeys) {
  const auto gpr = SolverRegistry::instance().create("g-pr-shr");
  EXPECT_TRUE(gpr->set_option("k", "1.5"));
  EXPECT_TRUE(gpr->set_option("strategy", "fix"));
  EXPECT_TRUE(gpr->set_option("initial-gr", "0"));
  EXPECT_FALSE(gpr->set_option("no-such-knob", "1"));
  EXPECT_THROW((void)gpr->set_option("k", "banana"), std::invalid_argument);
  EXPECT_THROW((void)gpr->set_option("strategy", "sometimes"),
               std::invalid_argument);

  const auto hk = SolverRegistry::instance().create("hk");
  EXPECT_FALSE(hk->set_option("k", "1.5"));  // HK has no tuning knobs
}

// The registry-level agreement sweep: every registered solver, on every
// suite graph, from the shared greedy init — exact solvers must produce a
// valid maximum matching (independently certified), heuristics a valid
// matching of at most maximum cardinality.
TEST(SolverRegistry, EverySolverAgreesOnTheGeneratorSuite) {
  device::Device dev({.num_threads = 4});
  const SolveContext ctx{.device = &dev};

  for (const BipartiteGraph& g : generator_suite()) {
    const matching::Matching init = matching::cheap_matching(g);
    const index_t maximum = matching::reference_maximum_cardinality(g);
    for (const std::string& name : SolverRegistry::instance().names()) {
      const auto solver = SolverRegistry::instance().create(name);
      const SolveResult result = solver->run(ctx, g, init);
      EXPECT_TRUE(result.matching.is_valid(g))
          << name << ": " << result.matching.first_violation(g);
      EXPECT_EQ(result.stats.cardinality, result.matching.cardinality())
          << name;
      if (solver->caps().exact) {
        EXPECT_EQ(result.stats.cardinality, maximum) << name;
        EXPECT_TRUE(matching::is_maximum(g, result.matching)) << name;
      } else {
        EXPECT_LE(result.stats.cardinality, maximum) << name;
      }
      EXPECT_GE(result.stats.wall_ms, 0.0) << name;
      if (name == "auto") {
        // Delegates per instance: device stats are whatever the resolved
        // concrete solver reported (a sequential pick has zero launches);
        // the choice itself is recorded in the detail string.
        EXPECT_EQ(result.stats.detail.rfind("auto -> ", 0), 0u)
            << result.stats.detail;
      } else if (solver->caps().needs_device) {
        EXPECT_GT(result.stats.modeled_ms, 0.0) << name;
        EXPECT_GT(result.stats.device_launches, 0) << name;
      } else {
        // P-DBFS's rounds run on this device's pool but are not launches.
        EXPECT_EQ(result.stats.modeled_ms, 0.0) << name;
        EXPECT_EQ(result.stats.device_launches, 0) << name;
      }
    }
  }
}

TEST(SolverRegistry, SolveConvenienceMatchesExplicitDispatch) {
  const BipartiteGraph g = gen::planted_perfect(128, 2.0, 3);
  device::Device dev({.num_threads = 1});
  const SolveContext ctx{.device = &dev};
  const SolveResult r = solve("hkdw", ctx, g, matching::cheap_matching(g));
  EXPECT_EQ(r.stats.cardinality, 128);
}

// Wraps a registered solver and keeps the answer it returned, so a test
// can hold `run_verified`'s verdict against the answer itself.
class RecordingSolver final : public Solver {
 public:
  explicit RecordingSolver(std::unique_ptr<Solver> inner)
      : inner_(std::move(inner)) {}
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] SolverCaps caps() const override { return inner_->caps(); }
  [[nodiscard]] Output solve_impl(
      const SolveContext& ctx, const BipartiteGraph& g,
      const matching::ValidMatching& init) const override {
    answer_.reset();
    SolveResult out = inner_->run(ctx, g, init);
    answer_ = out.matching;
    return {std::move(out.matching), out.stats.iterations,
            std::move(out.stats.detail)};
  }
  [[nodiscard]] const std::optional<matching::Matching>& answer() const {
    return answer_;
  }

 private:
  std::unique_ptr<Solver> inner_;
  mutable std::optional<matching::Matching> answer_;
};

// Three ways an init can break the certificate's precondition, each made
// from a valid greedy matching of `g`.
std::vector<std::pair<std::string, matching::Matching>> invalid_inits(
    const BipartiteGraph& g) {
  const matching::Matching valid = matching::cheap_matching(g);
  std::vector<std::pair<std::string, matching::Matching>> out;

  matching::Matching one_sided = valid;
  for (std::size_t u = 0; u < one_sided.row_match.size(); ++u)
    if (const index_t v = one_sided.row_match[u]; v != matching::kUnmatched) {
      one_sided.col_match[v] = matching::kUnmatched;
      break;
    }
  out.emplace_back("one-sided pair", std::move(one_sided));

  matching::Matching out_of_range = valid;
  if (const index_t v = out_of_range.row_match[0]; v != matching::kUnmatched)
    out_of_range.col_match[v] = matching::kUnmatched;
  out_of_range.row_match[0] = g.num_cols();
  out.emplace_back("out-of-range column", std::move(out_of_range));

  matching::Matching non_edge = valid;
  for (index_t u = 0; u < g.num_rows() && out.size() < 3; ++u)
    for (index_t w = 0; w < g.num_cols(); ++w) {
      if (g.has_edge(u, w)) continue;
      if (const index_t v = non_edge.row_match[u]; v != matching::kUnmatched)
        non_edge.col_match[v] = matching::kUnmatched;
      if (const index_t x = non_edge.col_match[w]; x != matching::kUnmatched)
        non_edge.row_match[x] = matching::kUnmatched;
      non_edge.row_match[u] = w;
      non_edge.col_match[w] = u;
      out.emplace_back("consistent non-edge pair", std::move(non_edge));
      break;
    }
  return out;
}

// `run_verified` takes an init's carried-over pairs as edges, so an invalid
// init must never turn into an accepted answer.  The init's type rules it
// out: `ValidMatching` rejects each of these, and the `Matching` overloads
// of `run_verified` and `Solver::run` prove their init the same way before
// any solver runs, for every registered solver, heuristics and `auto`
// included.
TEST(SolverRegistry, NoSolverTurnsAnInvalidInitIntoAnAcceptedAnswer) {
  const BipartiteGraph g = gen::random_uniform(200, 210, 900, 5);
  device::Device dev({.num_threads = 4});
  const SolveContext ctx{.device = &dev};
  const auto inits = invalid_inits(g);
  ASSERT_EQ(inits.size(), 3u);
  for (const auto& [kind, init] : inits) {
    SCOPED_TRACE(kind);
    test_support::expect_rejected(g, init);
    for (const std::string& name : SolverRegistry::instance().names()) {
      const RecordingSolver solver(SolverRegistry::instance().create(name));
      const JobOutcome out = run_verified(solver, ctx, g, init, true);
      EXPECT_FALSE(out.ok) << name;
      EXPECT_EQ(out.error, "invalid matching: " + init.first_violation(g))
          << name;
      test_support::expect_proof_error(g, init, [&] {
        (void)solver.run(ctx, g, init);
      });
      EXPECT_FALSE(solver.answer().has_value()) << name << " ran";
    }
  }
}

}  // namespace
}  // namespace bpm
