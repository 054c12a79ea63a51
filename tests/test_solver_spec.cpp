// SolverSpec (core/solver.hpp): the `name:key=val,key=val` grammar every
// CLI surface uses for tuned solvers — parsing, list parsing with option
// continuation, canonical round-trips, instantiation, and the loud
// failure modes (malformed specs and unknown names must name the
// registered solvers).

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/solver.hpp"
#include "graph/generators.hpp"
#include "matching/matching.hpp"
#include "util/rng.hpp"

namespace bpm {
namespace {

TEST(SolverSpec, ParsesABareName) {
  const SolverSpec spec = SolverSpec::parse("g-pr-shr");
  EXPECT_EQ(spec.name, "g-pr-shr");
  EXPECT_TRUE(spec.options.empty());
  EXPECT_EQ(spec.canonical(), "g-pr-shr");
}

TEST(SolverSpec, ParsesOptions) {
  const SolverSpec spec = SolverSpec::parse("g-pr-shr:k=1.5,strategy=fix");
  EXPECT_EQ(spec.name, "g-pr-shr");
  ASSERT_EQ(spec.options.size(), 2u);
  EXPECT_EQ(spec.options[0], (std::pair<std::string, std::string>{"k", "1.5"}));
  EXPECT_EQ(spec.options[1],
            (std::pair<std::string, std::string>{"strategy", "fix"}));
}

TEST(SolverSpec, CanonicalSortsOptionsAndRoundTrips) {
  const SolverSpec spec = SolverSpec::parse("g-pr-shr:strategy=fix,k=1.5");
  EXPECT_EQ(spec.canonical(), "g-pr-shr:k=1.5,strategy=fix");
  // parse(canonical()) is a fixed point.
  EXPECT_EQ(SolverSpec::parse(spec.canonical()).canonical(), spec.canonical());
  // Two spellings of one configuration share a canonical identity.
  EXPECT_EQ(SolverSpec::parse("g-pr-shr:k=1.5,strategy=fix").canonical(),
            spec.canonical());
}

TEST(SolverSpec, ListSplitsSpecsAndContinuesOptions) {
  // The comma is both the list and the option separator: a key=val token
  // without ':' continues the previous spec.
  const auto specs =
      SolverSpec::parse_list("g-pr-shr:k=1.5,strategy=fix,hk,seq-pr:gap=0");
  ASSERT_EQ(specs.size(), 3u);
  EXPECT_EQ(specs[0].canonical(), "g-pr-shr:k=1.5,strategy=fix");
  EXPECT_EQ(specs[1].canonical(), "hk");
  EXPECT_EQ(specs[2].canonical(), "seq-pr:gap=0");
}

TEST(SolverSpec, ListOfPlainNamesStaysPlain) {
  const auto specs = SolverSpec::parse_list("g-pr-shr,g-hkdw,p-dbfs");
  ASSERT_EQ(specs.size(), 3u);
  for (const auto& spec : specs) EXPECT_TRUE(spec.options.empty());
}

TEST(SolverSpec, MalformedSpecsFailWithTheRegistryListing) {
  // Every malformed shape throws invalid_argument whose message names the
  // registered solvers (the acceptance-criterion error surface).
  for (const std::string bad :
       {"", ":k=1", "hk:", "hk:k", "hk:=1", "hk:k=1,", "hk:k=1,,gap=0",
        "k=1.5", "hk,", "hk,,pf", ",hk"}) {
    try {
      (void)SolverSpec::parse_list(bad.empty() ? "," : bad);
      (void)SolverSpec::parse(bad);
      FAIL() << "spec '" << bad << "' should have thrown";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("g-pr-shr"), std::string::npos)
          << "error for '" << bad << "' should list the registry: "
          << e.what();
    }
  }
}

TEST(SolverSpec, UnknownNameFailsWithTheRegistryListing) {
  for (const std::string name : {"no-such-solver", "g-pr-sh"}) {
    const SolverSpec spec = SolverSpec::parse(name + ":k=2");
    try {
      (void)spec.instantiate();
      ADD_FAILURE() << "unknown solver " << name << " should have thrown";
    } catch (const std::invalid_argument& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("'" + name + "'"), std::string::npos) << msg;
      EXPECT_NE(msg.find("have:"), std::string::npos) << msg;
      EXPECT_NE(msg.find("g-pr-shr"), std::string::npos) << msg;
    }
  }
}

TEST(SolverSpec, UnknownOptionKeyFailsNamingTheSolver) {
  struct Case {
    const char* spec;
    const char* solver;
    const char* key;
  };
  for (const Case& c : {Case{"hk:k=1.5", "hk", "'k'"},
                        Case{"g-pr-shr:shards=2", "g-pr-shr", "'shards'"},
                        Case{"g-pr-wb:shard-drivers=par", "g-pr-wb",
                             "'shard-drivers'"},
                        Case{"g-pr-shr:concurrent-gr=1", "g-pr-shr",
                             "'concurrent-gr'"},
                        Case{"g-pr-wb:split=off", "g-pr-wb", "'split'"}}) {
    try {
      (void)SolverSpec::parse(c.spec).instantiate();
      ADD_FAILURE() << c.spec << " has an unknown option; should have thrown";
    } catch (const std::invalid_argument& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find(std::string("solver '") + c.solver + "'"),
                std::string::npos)
          << msg;
      EXPECT_NE(msg.find(c.key), std::string::npos) << msg;
    }
  }
}

TEST(SolverSpec, MalformedOptionValueFailsAtInstantiate) {
  // Numeric knobs take the whole token as one finite, in-range number:
  // trailing garbage, nan/inf, non-positive k, and a shrink threshold
  // outside int32 all fail before any solve.
  for (const std::string bad :
       {"g-pr-shr:k=banana", "g-pr-shr:strategy=sideways",
        "g-pr-shr:k=0.7junk", "g-pr-shr:k=nan", "g-pr-shr:k=-3",
        "seq-pr:k=inf", "g-pr-shr:shrink-threshold=1e20"})
    EXPECT_THROW((void)SolverSpec::parse(bad).instantiate(),
                 std::invalid_argument)
        << bad;
}

TEST(SolverSpec, InstantiatedTunedSolverRunsEndToEnd) {
  const auto g = graph::gen::random_uniform(200, 210, 900, 3);
  device::Device dev({.num_threads = 2});
  const SolveContext ctx{.device = &dev};
  const matching::Matching init(g);

  const auto tuned = SolverSpec::parse("g-pr-shr:k=1.5").instantiate();
  const auto stock = SolverSpec::parse("hk").instantiate();
  const SolveResult a = tuned->run(ctx, g, init);
  const SolveResult b = stock->run(ctx, g, init);
  EXPECT_EQ(a.stats.cardinality, b.stats.cardinality);
  EXPECT_TRUE(a.matching.is_valid(g));
}

TEST(SolverSpec, AliasesResolveThroughSpecs) {
  EXPECT_EQ(SolverSpec::parse("g-pr").instantiate()->name(), "g-pr-shr");
  EXPECT_EQ(SolverSpec::parse("pr:k=2").instantiate()->name(), "seq-pr");
}

TEST(SolverSpec, RandomizedCanonicalRoundTripsAreFixedPoints) {
  // Property: for any spec `s` the grammar can express,
  // parse(canonical(s)) == s — same name, same option multiset, and the
  // canonical form is a fixed point of parse∘canonical.  400 random specs
  // over every registered solver name with random (possibly duplicate)
  // keys and values drawn from the grammar's alphabet.
  Rng rng(20260727);
  const std::vector<std::string> names = SolverRegistry::instance().names();
  const std::string key_chars = "abcdefghijklmnopqrstuvwxyz0123456789-";
  const std::string val_chars =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
      "0123456789.-_+";
  for (int trial = 0; trial < 400; ++trial) {
    SolverSpec spec;
    spec.name = names[rng.below(names.size())];
    const std::size_t num_options = rng.below(4);
    for (std::size_t o = 0; o < num_options; ++o) {
      std::string key, val;
      for (std::uint64_t c = 0, n = 1 + rng.below(6); c < n; ++c)
        key += key_chars[rng.below(key_chars.size())];
      for (std::uint64_t c = 0, n = 1 + rng.below(8); c < n; ++c)
        val += val_chars[rng.below(val_chars.size())];
      spec.options.emplace_back(std::move(key), std::move(val));
    }

    const std::string canon = spec.canonical();
    const SolverSpec re = SolverSpec::parse(canon);
    EXPECT_EQ(re.name, spec.name) << canon;
    EXPECT_EQ(re.canonical(), canon) << canon;  // the fixed point
    ASSERT_EQ(re.options.size(), spec.options.size()) << canon;
    // Same option multiset: canonicalisation only reorders.
    auto want = spec.options;
    auto got = re.options;
    std::stable_sort(want.begin(), want.end());
    std::stable_sort(got.begin(), got.end());
    EXPECT_EQ(got, want) << canon;

    // parse_list must treat the canonical spec as exactly one entry
    // (option continuation shares the comma with the list separator).
    const std::vector<SolverSpec> list = SolverSpec::parse_list(canon);
    ASSERT_EQ(list.size(), 1u) << canon;
    EXPECT_EQ(list[0].canonical(), canon);
  }
}

}  // namespace
}  // namespace bpm
