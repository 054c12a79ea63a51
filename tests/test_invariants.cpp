// Invariant tests: the two properties the paper's correctness argument
// rests on, checked at every kernel-launch barrier via the GprObserver
// hook.
//
//  * Neighborhood invariant (Section II-B): for every column v and every
//    neighbor u in Γ(v), ψ(u) >= ψ(v) − 1.  On a one-thread device the
//    execution is exactly a sequentialisation of the paper's pushes, so
//    the invariant must hold at every barrier.
//  * Matching invariant (Section III): rows are authoritative — whenever
//    µ(u) = v and µ(v) = u, the pair is a real edge; a matched row never
//    becomes unmatched; µ(v) = −2 columns never come back.

#include <gtest/gtest.h>

#include <vector>

#include "core/g_pr.hpp"
#include "fanout_device.hpp"
#include "graph/generators.hpp"
#include "matching/greedy.hpp"
#include "matching/verify.hpp"

namespace bpm::gpu {
namespace {

using device::Device;
using graph::BipartiteGraph;
using graph::index_t;
namespace gen = graph::gen;

/// Checks both invariants at every barrier and accumulates violations.
class InvariantObserver : public GprObserver {
 public:
  explicit InvariantObserver(const BipartiteGraph& g)
      : g_(g),
        was_matched_(static_cast<std::size_t>(g.num_rows()), 0),
        retired_(static_cast<std::size_t>(g.num_cols()), 0) {}

  void on_loop_end(std::int64_t loop, const DeviceState& st) override {
    ++loops_seen_;
    check_neighborhood(loop, st);
    check_matching(loop, st);
  }

  [[nodiscard]] const std::vector<std::string>& violations() const {
    return violations_;
  }
  [[nodiscard]] std::int64_t loops_seen() const { return loops_seen_; }

 private:
  void fail(std::int64_t loop, const std::string& what) {
    if (violations_.size() < 5)
      violations_.push_back("loop " + std::to_string(loop) + ": " + what);
  }

  void check_neighborhood(std::int64_t loop, const DeviceState& st) {
    for (index_t v = 0; v < g_.num_cols(); ++v) {
      const index_t psi_v = st.psi_col.load(static_cast<std::size_t>(v));
      for (index_t u : g_.col_neighbors(v)) {
        const index_t psi_u = st.psi_row.load(static_cast<std::size_t>(u));
        if (psi_u < psi_v - 1)
          fail(loop, "psi(u=" + std::to_string(u) + ")=" +
                         std::to_string(psi_u) + " < psi(v=" +
                         std::to_string(v) + ")-1=" + std::to_string(psi_v - 1));
      }
    }
  }

  void check_matching(std::int64_t loop, const DeviceState& st) {
    for (index_t u = 0; u < g_.num_rows(); ++u) {
      const auto uz = static_cast<std::size_t>(u);
      const index_t v = st.mu_row.load(uz);
      if (v == -1) {
        // Row-match monotonicity: once matched, never unmatched.
        if (was_matched_[uz])
          fail(loop, "row " + std::to_string(u) + " became unmatched");
        continue;
      }
      if (v < 0 || v >= g_.num_cols()) {
        fail(loop, "mu_row out of range");
        continue;
      }
      if (!g_.has_edge(u, v))
        fail(loop, "mu_row pairs non-edge (" + std::to_string(u) + "," +
                       std::to_string(v) + ")");
      was_matched_[uz] = 1;
    }
    // Retired columns stay retired.
    for (index_t v = 0; v < g_.num_cols(); ++v) {
      const auto vz = static_cast<std::size_t>(v);
      const bool retired = st.mu_col.load(vz) == -2;
      if (retired_[vz] && !retired)
        fail(loop, "column " + std::to_string(v) + " un-retired");
      if (retired) retired_[vz] = 1;
    }
  }

  const BipartiteGraph& g_;
  std::vector<std::string> violations_;
  std::vector<char> was_matched_;
  std::vector<char> retired_;
  std::int64_t loops_seen_ = 0;
};

class InvariantSweep : public ::testing::TestWithParam<GprVariant> {
 protected:
  void run(const BipartiteGraph& g, unsigned threads) {
    // The empty start maximises active columns (and hence invariant
    // checking); the greedy start exercises the initialised path.
    std::int64_t loops_total = 0;
    for (const bool greedy : {false, true}) {
      Device dev = test_support::fanout_device(threads);
      InvariantObserver obs(g);
      GprOptions opt;
      opt.variant = GetParam();
      opt.shrink_threshold = 4;
      const matching::Matching init =
          greedy ? matching::cheap_matching(g) : matching::Matching(g);
      const GprResult r = g_pr(dev, g, init, opt, &obs);
      loops_total += obs.loops_seen();
      for (const auto& v : obs.violations()) ADD_FAILURE() << v;
      EXPECT_EQ(r.matching.cardinality(),
                matching::reference_maximum_cardinality(g));
    }
    EXPECT_GT(loops_total, 0);
  }
};

TEST_P(InvariantSweep, SequentialChain) {
  run(gen::chain(40), 1);
}

TEST_P(InvariantSweep, SequentialRandom) {
  for (std::uint64_t seed = 0; seed < 4; ++seed)
    run(gen::random_uniform(60, 60, 200, seed), 1);
}

TEST_P(InvariantSweep, SequentialPowerLaw) {
  run(gen::chung_lu(150, 150, 3.0, 2.4, 7), 1);
}

TEST_P(InvariantSweep, SequentialStarContention) {
  run(gen::complete_bipartite(1, 12), 1);
}

// On four threads the matching invariants (row monotonicity, retirement
// permanence, edge validity) must still hold at every barrier; the
// neighborhood invariant holds for the values at barriers as well, since
// all racy writes have landed by then and each write was derived from a
// previously-held value.
TEST_P(InvariantSweep, ConcurrentRandom) {
  for (std::uint64_t seed = 0; seed < 4; ++seed)
    run(gen::random_uniform(40, 40, 160, seed), 4);
}

INSTANTIATE_TEST_SUITE_P(Variants, InvariantSweep,
                         ::testing::Values(GprVariant::kFirst,
                                           GprVariant::kNoShrink,
                                           GprVariant::kShrink),
                         [](const auto& param_info) {
                           switch (param_info.param) {
                             case GprVariant::kFirst: return "First";
                             case GprVariant::kNoShrink: return "NoShr";
                             case GprVariant::kShrink: return "Shr";
                           }
                           return "?";
                         });

}  // namespace
}  // namespace bpm::gpu
