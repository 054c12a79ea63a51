// Fidelity tests for the synthetic Table I analogues: the structural
// variables that drive the paper's performance story must be in the right
// regime.  These are the checks that catch a generator regression like
// "lattice ordering makes greedy init near-perfect" (a bug fixed during
// development — natural-order meshes gave IM/MM ≈ 0.999 where the paper's
// randomly-ordered matrices sit at 0.86–0.95).

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "core/g_gr.hpp"
#include "graph/instances.hpp"
#include "matching/greedy.hpp"
#include "matching/hopcroft_karp.hpp"

namespace bpm::graph {
namespace {

constexpr double kScale = 0.004;
constexpr std::uint64_t kSeed = 11;

struct Built {
  BipartiteGraph g;
  index_t im = 0;
  index_t mm = 0;
};

Built build(const Instance& inst) {
  Built b{inst.build(kScale, kSeed), 0, 0};
  const matching::Matching greedy = matching::cheap_matching(b.g);
  b.im = greedy.cardinality();
  b.mm = matching::hopcroft_karp(b.g, greedy).cardinality();
  return b;
}

class InstanceFidelity : public ::testing::TestWithParam<Instance> {};

TEST_P(InstanceFidelity, GreedyCoverageTracksPaper) {
  const Instance& inst = GetParam();
  const Built b = build(inst);
  ASSERT_GT(b.mm, 0) << inst.name;

  const double ours =
      static_cast<double>(b.im) / static_cast<double>(b.mm);
  const double paper =
      static_cast<double>(inst.paper.initial_matching) /
      static_cast<double>(inst.paper.maximum_matching);
  // Greedy coverage (IM/MM) controls the deficiency every algorithm
  // starts from.  Asymmetric band: synthetic analogues at reduced scale
  // may leave greedy somewhat *more* deficient than the original
  // (−0.2 slack), but markedly *less* deficient means the instance lost
  // its difficulty — that is exactly the lattice-ordering regression
  // (+0.1 cap; road class: paper 0.87, natural-order bug gave 0.99).
  EXPECT_GT(ours, paper - 0.2) << inst.name << ": IM/MM " << ours
                               << " vs paper " << paper;
  EXPECT_LT(ours, paper + 0.1)
      << inst.name << ": IM/MM " << ours << " vs paper " << paper;
}

TEST_P(InstanceFidelity, MatchableFractionTracksPaper) {
  const Instance& inst = GetParam();
  const Built b = build(inst);
  const double ours = static_cast<double>(b.mm) /
                      static_cast<double>(std::min(b.g.num_rows(), b.g.num_cols()));
  const double paper =
      static_cast<double>(inst.paper.maximum_matching) /
      static_cast<double>(std::min(inst.paper.rows, inst.paper.cols));
  // MM/n separates the perfectly-matchable classes (trace, delaunay,
  // circuit: ≈ 1.0) from the power-law ones with many unmatchable
  // columns (kron ≈ 0.49, flickr ≈ 0.45).
  EXPECT_NEAR(ours, paper, 0.2) << inst.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllClasses, InstanceFidelity,
    // One representative per structural class keeps runtime modest:
    // amazon0505 (social), coPapersDBLP (copaper), eu-2005 (web),
    // delaunay_n20, kron_logn20, roadNet-PA, Hamrle3 (circuit),
    // GL7d19 (combinat), hugetrace-00000 (trace), italy_osm (osm).
    ::testing::Values(paper_instances()[0], paper_instances()[1],
                      paper_instances()[4], paper_instances()[5],
                      paper_instances()[6], paper_instances()[7],
                      paper_instances()[10], paper_instances()[12],
                      paper_instances()[19], paper_instances()[22]),
    [](const auto& param_info) {
      std::string name = param_info.param.name;
      for (char& c : name)
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      return name;
    });

TEST(InstanceFidelity, TraceMeshesAreTheDeepBfsClass) {
  // The class-defining property behind Figure 4's losing instances: one
  // global relabel on a trace analogue needs far more BFS levels than on
  // a kron analogue of comparable size.
  const Built trace = build(paper_instances()[19]);   // hugetrace-00000
  const Built kron = build(paper_instances()[6]);     // kron_g500-logn20

  auto gr_depth = [](const Built& b) {
    device::Device dev({.num_threads = 1});
    gpu::DeviceState st(b.g.num_rows(), b.g.num_cols());
    const matching::Matching greedy = matching::cheap_matching(b.g);
    st.mu_row.assign_from(greedy.row_match);
    st.mu_col.assign_from(greedy.col_match);
    return gpu::g_gr(dev, b.g, st).max_level;
  };
  const index_t trace_depth = gr_depth(trace);
  const index_t kron_depth = gr_depth(kron);
  EXPECT_GT(trace_depth, 8 * kron_depth)
      << "trace " << trace_depth << " vs kron " << kron_depth;
}

TEST(InstanceFidelity, BuildRejectsAScaleBeyondTheVertexIndex) {
  // 2^24 rows x 200 overflows a 32-bit index: the build throws instead
  // of casting the count into a wrong, tiny graph.
  const auto& instances = paper_instances();
  const auto it = std::find_if(instances.begin(), instances.end(),
                               [](const Instance& i) {
                                 return i.name == "delaunay_n24";
                               });
  ASSERT_NE(it, instances.end());
  EXPECT_THROW((void)it->build(200.0, 1), std::invalid_argument);
}

}  // namespace
}  // namespace bpm::graph
