// Cross-algorithm agreement: every matcher in the repository — sequential,
// multicore, and the three GPU G-PR variants plus G-HK(DW) — must report
// the same maximum cardinality on the same instance, independently
// verified by the Berge certificate.  This is the repository's strongest
// integration test: a bug in any one algorithm (or in a generator, or in
// the verifier) breaks agreement somewhere in the sweep.

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "core/g_hk.hpp"
#include "core/g_pr.hpp"
#include "graph/generators.hpp"
#include "graph/instances.hpp"
#include "matching/greedy.hpp"
#include "matching/hkdw.hpp"
#include "matching/hopcroft_karp.hpp"
#include "matching/pothen_fan.hpp"
#include "matching/seq_pr.hpp"
#include "matching/verify.hpp"
#include "multicore/pdbfs.hpp"

namespace bpm {
namespace {

using device::Device;
using graph::BipartiteGraph;
using graph::index_t;
namespace gen = graph::gen;

struct NamedMatcher {
  std::string name;
  std::function<matching::Matching(const BipartiteGraph&,
                                   const matching::Matching&)>
      solve;
};

std::vector<NamedMatcher> all_matchers() {
  std::vector<NamedMatcher> out;
  out.push_back({"seq_pr", [](const auto& g, const auto& init) {
                   return matching::seq_push_relabel(g, init);
                 }});
  out.push_back({"hopcroft_karp", [](const auto& g, const auto& init) {
                   return matching::hopcroft_karp(g, init);
                 }});
  out.push_back({"pothen_fan", [](const auto& g, const auto& init) {
                   return matching::pothen_fan(g, init);
                 }});
  out.push_back({"hkdw", [](const auto& g, const auto& init) {
                   return matching::hkdw(g, init);
                 }});
  out.push_back({"p_dbfs", [](const auto& g, const auto& init) {
                   return mc::p_dbfs(g, init, {.num_threads = 4}).matching;
                 }});
  for (const auto variant :
       {gpu::GprVariant::kFirst, gpu::GprVariant::kNoShrink,
        gpu::GprVariant::kShrink}) {
    out.push_back({"g_pr_" + to_string(variant),
                   [variant](const auto& g, const auto& init) {
                     Device dev({.num_threads = 4});
                     gpu::GprOptions opt;
                     opt.variant = variant;
                     opt.shrink_threshold = 8;
                     return gpu::g_pr(dev, g, init, opt).matching;
                   }});
  }
  out.push_back({"g_pr_wb", [](const auto& g, const auto& init) {
                   // The workload-balanced frontier driver (GprOptions::
                   // balance) must agree with every vertex-parallel path.
                   Device dev({.num_threads = 4});
                   gpu::GprOptions opt;
                   opt.balance = gpu::BalanceMode::kOn;
                   return gpu::g_pr(dev, g, init, opt).matching;
                 }});
  out.push_back({"g_hk", [](const auto& g, const auto& init) {
                   Device dev({.num_threads = 4});
                   return gpu::g_hk(dev, g, init, {.duff_wiberg = false})
                       .matching;
                 }});
  out.push_back({"g_hkdw", [](const auto& g, const auto& init) {
                   Device dev({.num_threads = 4});
                   return gpu::g_hk(dev, g, init, {.duff_wiberg = true})
                       .matching;
                 }});
  return out;
}

void expect_all_agree(const BipartiteGraph& g, const std::string& label) {
  const index_t want = matching::reference_maximum_cardinality(g);
  const matching::Matching init = matching::cheap_matching(g);
  for (const auto& matcher : all_matchers()) {
    const matching::Matching m = matcher.solve(g, init);
    ASSERT_TRUE(m.is_valid(g))
        << label << " / " << matcher.name << ": " << m.first_violation(g);
    EXPECT_EQ(m.cardinality(), want) << label << " / " << matcher.name;
    EXPECT_TRUE(matching::is_maximum(g, m)) << label << " / " << matcher.name;
  }
}

// ------------------------------------------------- generator-driven sweep ----

struct SweepCase {
  std::string name;
  std::function<BipartiteGraph(std::uint64_t seed)> make;
};

class CrossSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(CrossSweep, AllAlgorithmsAgreeAcrossSeeds) {
  for (std::uint64_t seed = 0; seed < 3; ++seed)
    expect_all_agree(GetParam().make(seed),
                     GetParam().name + "#" + std::to_string(seed));
}

INSTANTIATE_TEST_SUITE_P(
    Generators, CrossSweep,
    ::testing::Values(
        SweepCase{"random_sq",
                  [](std::uint64_t s) {
                    return gen::random_uniform(120, 120, 420, s);
                  }},
        SweepCase{"random_wide",
                  [](std::uint64_t s) {
                    return gen::random_uniform(60, 180, 400, s);
                  }},
        SweepCase{"random_tall",
                  [](std::uint64_t s) {
                    return gen::random_uniform(180, 60, 400, s);
                  }},
        SweepCase{"chung_lu",
                  [](std::uint64_t s) {
                    return gen::chung_lu(200, 200, 3.5, 2.4, s);
                  }},
        SweepCase{"rmat",
                  [](std::uint64_t s) { return gen::rmat(7, 5.0, s); }},
        SweepCase{"road",
                  [](std::uint64_t s) {
                    return gen::road_network(12, 12, 0.85, s);
                  }},
        SweepCase{"delaunay",
                  [](std::uint64_t s) { return gen::delaunay_mesh(11, 11, s); }},
        SweepCase{"trace",
                  [](std::uint64_t s) {
                    return gen::trace_mesh(70, 3, 0.06, s);
                  }},
        SweepCase{"copaper",
                  [](std::uint64_t s) { return gen::copaper(150, 30, 6.0, s); }},
        SweepCase{"skewed_hubs",
                  [](std::uint64_t s) {
                    // Deficient (rows < cols) so hubs stay contended.
                    return gen::skewed_hubs(170, 200, 4, 0.3, 2.5, s);
                  }},
        SweepCase{"planted",
                  [](std::uint64_t s) {
                    return gen::planted_perfect(80, 1.0, s);
                  }}),
    [](const auto& param_info) { return param_info.param.name; });

// ------------------------------------------------ miniature paper suite ----

TEST(CrossInstances, MiniaturePaperInstancesAgree) {
  // Every 4th Table I instance at ~1k-vertex scale: the full algorithm
  // portfolio must agree on all graph classes of the evaluation.
  for (const auto& inst : graph::select_instances(4)) {
    const BipartiteGraph g = inst.build(0.0008, 3);
    expect_all_agree(g, inst.name);
  }
}

}  // namespace
}  // namespace bpm
