// Property: maximum matching cardinality is a graph invariant — relabeling
// vertices must not change any algorithm's answer.  Catches order-dependent
// bugs (cursor arithmetic, early exits, active-list bookkeeping) that
// fixed-layout tests can miss.

#include <gtest/gtest.h>

#include "core/g_hk.hpp"
#include "core/g_pr.hpp"
#include "device/thread_pool.hpp"
#include "fanout_device.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "matching/greedy.hpp"
#include "matching/hkdw.hpp"
#include "matching/hopcroft_karp.hpp"
#include "matching/pothen_fan.hpp"
#include "matching/seq_pr.hpp"
#include "multicore/pdbfs.hpp"

namespace bpm {
namespace {

using device::Device;
using graph::BipartiteGraph;
using graph::index_t;
namespace gen = graph::gen;

index_t cardinality_of(const std::string& algo, const BipartiteGraph& g) {
  const matching::ValidMatching init = matching::cheap_matching(g);
  if (algo == "seq_pr") return matching::seq_push_relabel(g, init).cardinality();
  if (algo == "hk") return matching::hopcroft_karp(g, init).cardinality();
  if (algo == "pf") return matching::pothen_fan(g, init).cardinality();
  if (algo == "hkdw") return matching::hkdw(g, init).cardinality();
  if (algo == "pdbfs") {
    device::ThreadPool pool(4);
    return mc::p_dbfs(g, init, &pool).matching.cardinality();
  }
  if (algo == "g_pr") {
    Device dev = test_support::fanout_device(4);
    return gpu::g_pr(dev, g, init).matching.cardinality();
  }
  if (algo == "g_pr_wb") {
    Device dev = test_support::fanout_device(4);
    gpu::GprOptions opt;
    opt.balance = gpu::BalanceMode::kOn;
    return gpu::g_pr(dev, g, init, opt).matching.cardinality();
  }
  if (algo == "g_hkdw") {
    Device dev = test_support::fanout_device(4);
    return gpu::g_hk(dev, g, init).matching.cardinality();
  }
  ADD_FAILURE() << "unknown algo " << algo;
  return -1;
}

class PermutationInvariance : public ::testing::TestWithParam<const char*> {};

TEST_P(PermutationInvariance, CardinalityStableUnderRelabeling) {
  const std::vector<BipartiteGraph> bases = {
      gen::random_uniform(90, 90, 320, 3),
      gen::chung_lu(150, 150, 3.0, 2.4, 5),
      gen::rmat(7, 4.0, 7),
      gen::trace_mesh(50, 3, 0.05, 9),
      gen::skewed_hubs(120, 140, 3, 0.3, 2.5, 13),
  };
  for (std::size_t b = 0; b < bases.size(); ++b) {
    const index_t base_card = cardinality_of(GetParam(), bases[b]);
    for (std::uint64_t perm_seed = 1; perm_seed <= 3; ++perm_seed) {
      const BipartiteGraph permuted =
          graph::permute_vertices(bases[b], perm_seed);
      EXPECT_EQ(cardinality_of(GetParam(), permuted), base_card)
          << GetParam() << " base " << b << " perm " << perm_seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Algorithms, PermutationInvariance,
                         ::testing::Values("seq_pr", "hk", "pf", "hkdw",
                                           "pdbfs", "g_pr", "g_pr_wb",
                                           "g_hkdw"),
                         [](const auto& param_info) {
                           return std::string(param_info.param);
                         });

}  // namespace
}  // namespace bpm
