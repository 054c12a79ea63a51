#include <gtest/gtest.h>

#include "core/g_gr.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "matching/greedy.hpp"
#include "matching/matching.hpp"

namespace bpm::gpu {
namespace {

using device::Device;
using device::ExecMode;
using graph::BipartiteGraph;
using graph::index_t;
namespace gen = graph::gen;

DeviceState make_state(const BipartiteGraph& g, const matching::Matching& m) {
  DeviceState st(g.num_rows(), g.num_cols());
  st.mu_row.assign_from(m.row_match);
  st.mu_col.assign_from(m.col_match);
  return st;
}

/// Host reference: exact alternating-path distances via the sequential BFS
/// of Algorithm 2.
void reference_distances(const BipartiteGraph& g, const matching::Matching& m,
                         std::vector<index_t>& psi_row,
                         std::vector<index_t>& psi_col) {
  const index_t inf = g.psi_infinity();
  psi_row.assign(static_cast<std::size_t>(g.num_rows()), inf);
  psi_col.assign(static_cast<std::size_t>(g.num_cols()), inf);
  std::vector<index_t> queue;
  for (index_t u = 0; u < g.num_rows(); ++u) {
    if (m.row_match[static_cast<std::size_t>(u)] == matching::kUnmatched) {
      psi_row[static_cast<std::size_t>(u)] = 0;
      queue.push_back(u);
    }
  }
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const index_t u = queue[head];
    for (index_t v : g.row_neighbors(u)) {
      if (psi_col[static_cast<std::size_t>(v)] != inf) continue;
      psi_col[static_cast<std::size_t>(v)] =
          psi_row[static_cast<std::size_t>(u)] + 1;
      const index_t w = m.col_match[static_cast<std::size_t>(v)];
      if (w >= 0 && psi_row[static_cast<std::size_t>(w)] == inf) {
        psi_row[static_cast<std::size_t>(w)] =
            psi_row[static_cast<std::size_t>(u)] + 2;
        queue.push_back(w);
      }
    }
  }
}

/// The deepest finite row label: the BFS's last populated level.
index_t deepest_level(const BipartiteGraph& g,
                      const std::vector<index_t>& psi_row) {
  index_t deepest = 0;
  for (index_t d : psi_row)
    if (d < g.psi_infinity()) deepest = std::max(deepest, d);
  return deepest;
}

class GGrModes : public ::testing::TestWithParam<ExecMode> {
 protected:
  Device make_device() { return Device({.mode = GetParam(), .num_threads = 4}); }

  void expect_exact_distances(const BipartiteGraph& g,
                              const matching::Matching& m) {
    Device dev = make_device();
    DeviceState st = make_state(g, m);
    const GrResult r = g_gr(dev, g, st);
    std::vector<index_t> want_row, want_col;
    reference_distances(g, m, want_row, want_col);
    EXPECT_EQ(st.psi_row.to_host(), want_row);
    EXPECT_EQ(st.psi_col.to_host(), want_col);
    // maxLevel covers the deepest populated level.
    EXPECT_GE(r.max_level, deepest_level(g, want_row));
  }
};

TEST_P(GGrModes, EmptyMatchingChainGivesBfsDistances) {
  const BipartiteGraph g = gen::chain(8);
  expect_exact_distances(g, matching::Matching(g));
}

TEST_P(GGrModes, GreedyMatchingChain) {
  const BipartiteGraph g = gen::chain(8);
  expect_exact_distances(g, matching::cheap_matching(g));
}

TEST_P(GGrModes, RandomGraphsManySeeds) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const BipartiteGraph g = gen::random_uniform(80, 90, 300, seed);
    expect_exact_distances(g, matching::Matching(g));
    expect_exact_distances(g, matching::cheap_matching(g));
  }
}

TEST_P(GGrModes, PowerLawWithUnreachableVertices) {
  const BipartiteGraph g = gen::chung_lu(200, 200, 3.0, 2.4, 3);
  expect_exact_distances(g, matching::cheap_matching(g));
}

TEST_P(GGrModes, PerfectMatchingLeavesAllUnreachable) {
  // With a perfect matching there is no unmatched row: every vertex must
  // be labeled m+n.
  const BipartiteGraph g = gen::complete_bipartite(5, 5);
  matching::Matching m(g);
  for (index_t i = 0; i < 5; ++i) m.match(i, i);
  Device dev = make_device();
  DeviceState st = make_state(g, m);
  (void)g_gr(dev, g, st);
  for (index_t d : st.psi_row.to_host()) EXPECT_EQ(d, g.psi_infinity());
  for (index_t d : st.psi_col.to_host()) EXPECT_EQ(d, g.psi_infinity());
}

TEST_P(GGrModes, StaleColumnEntriesDoNotPropagate) {
  // The paper's G-GR-KRNL only follows µ(v) when µ(µ(v)) = v.  Plant a
  // stale column entry and check the BFS ignores it.
  const BipartiteGraph g = gen::chain(3);
  matching::Matching m(g);
  m.match(1, 1);
  Device dev = make_device();
  DeviceState st = make_state(g, m);
  st.mu_col.store(2, 1);  // stale: column 2 claims row 1, row 1 disagrees
  const GrResult r = g_gr(dev, g, st);
  (void)r;
  // Column 2's label must come from the BFS (via row 2), not from the
  // stale matched edge.
  std::vector<index_t> want_row, want_col;
  reference_distances(g, m, want_row, want_col);
  EXPECT_EQ(st.psi_row.to_host(), want_row);
  EXPECT_EQ(st.psi_col.to_host(), want_col);
}

TEST_P(GGrModes, LevelKernelCountMatchesDepth) {
  // A chain of k links needs one launch per populated BFS level plus the
  // final launch that labels no row; maxLevel is what the adaptive
  // relabel schedule feeds on.
  const BipartiteGraph g = gen::chain(32);
  matching::Matching m(g);
  for (index_t i = 1; i < 32; ++i) m.match(i, i - 1);  // only r0, c31 free
  Device dev = make_device();
  DeviceState st = make_state(g, m);
  const GrResult r = g_gr(dev, g, st);
  std::vector<index_t> want_row, want_col;
  reference_distances(g, m, want_row, want_col);
  EXPECT_EQ(r.level_kernels, deepest_level(g, want_row) / 2 + 1);
  EXPECT_EQ(r.max_level, 2 * r.level_kernels);
  EXPECT_EQ(r.reached, 32);  // every row, once: a chain has no races
}

INSTANTIATE_TEST_SUITE_P(AllModes, GGrModes,
                         ::testing::Values(ExecMode::kSequential,
                                           ExecMode::kConcurrent),
                         [](const auto& param_info) {
                           return param_info.param == ExecMode::kSequential
                                      ? "Sequential"
                                      : "Concurrent";
                         });

// A host engine with its serial cutoff disabled: every launch, the level
// frontiers included, fans out over 4 pool workers, so their private
// appends really run concurrently.
TEST(GGrHostFanout, ExactDistancesUnderConcurrentAppends) {
  const auto engine = std::make_shared<device::HostParallelEngine>(
      device::EngineDescriptor{
          .mode = ExecMode::kConcurrent, .threads = 4, .host_grain = 1});
  Device dev(engine);
  auto check = [&](const BipartiteGraph& g, const matching::Matching& m) {
    DeviceState st = make_state(g, m);
    (void)g_gr(dev, g, st);
    std::vector<index_t> want_row, want_col;
    reference_distances(g, m, want_row, want_col);
    EXPECT_EQ(st.psi_row.to_host(), want_row);
    EXPECT_EQ(st.psi_col.to_host(), want_col);
  };
  // Hubs: many frontier rows race for the same few columns.
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const BipartiteGraph g = gen::chung_lu(400, 400, 4.0, 2.1, seed);
    check(g, matching::Matching(g));
    check(g, matching::cheap_matching(g));
  }
  // Complete bipartite: every frontier row races for every column.
  const BipartiteGraph kb = gen::complete_bipartite(40, 30);
  matching::Matching partial(kb);
  for (index_t i = 0; i < 20; ++i) partial.match(i, i);
  check(kb, partial);
  check(kb, matching::Matching(kb));
}

}  // namespace
}  // namespace bpm::gpu
