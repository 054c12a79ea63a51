#pragma once

#include <cstdint>
#include <string>

#include "graph/bipartite_graph.hpp"

namespace bpm::gpu {

using graph::index_t;

/// Which G-PR implementation variant to run (paper Figure 1 compares all
/// three).
enum class GprVariant {
  /// Algorithm 6: one logical thread per column of V_C, every launch.
  kFirst,
  /// Algorithms 7–9: double-buffered active-column list (Ac/Ap/iA) with
  /// conflict detection and roll-back, but no compaction.
  kNoShrink,
  /// kNoShrink plus G-PR-SHRKRNL: periodic prefix-sum compaction of the
  /// active list after each global relabel, when |Ac| ≥ shrink_threshold.
  kShrink,
};

/// Global-relabeling frequency strategy (paper §III-A).
enum class RelabelStrategy {
  /// (fix, k): next global relabel after k push-kernel executions.
  kFixed,
  /// (adaptive, k): next global relabel after k × maxLevel push-kernel
  /// executions, where maxLevel is the BFS depth of the previous global
  /// relabel — the paper's contribution, motivated by Theorem 2 (the
  /// deficiency-many disjoint augmenting paths have average length
  /// bounded via maxLevel).
  kAdaptive,
};

/// Whether a G-PR solve uses the workload-balanced (edge-partitioned)
/// schedule of the active-list driver.
enum class BalanceMode {
  kOff,  ///< always the variant's vertex-parallel schedule
  kOn,   ///< always the balanced schedule
  /// Decide per solve from the measured degree skew (max/mean column
  /// degree over the initially unmatched columns): balanced when the
  /// skew reaches kAutoBalanceSkew, vertex-parallel otherwise.  This
  /// keeps the balanced schedule's win on skewed instances without
  /// paying its per-loop compaction on uniform ones (the ~1%
  /// uniform-suite regression recorded in BENCH_gpr_balance.json).
  kAuto,
};

/// BalanceMode::kAuto's decision threshold on max/mean unmatched-column
/// degree.  Calibrated against the bench suites: uniform_random sits near
/// 3.4 and planted near 4, the hub/power-law instances at 7.7+.
inline constexpr double kAutoBalanceSkew = 4.5;

struct GprOptions {
  GprVariant variant = GprVariant::kShrink;
  RelabelStrategy strategy = RelabelStrategy::kAdaptive;

  /// The k in (adaptive, k) / (fix, k).  The paper's best configuration is
  /// (adaptive, 0.7); Figure 1 sweeps {0.3, 0.7, 1, 1.5, 2} adaptive and
  /// {10, 50} fixed.
  double k = 0.7;

  /// Run G-PR-SHRKRNL only while the active list is at least this long
  /// (paper: 512; below that the compaction does not pay for itself).
  index_t shrink_threshold = 512;

  /// Force a global relabel before the first push kernel (iterGR = 0, as
  /// the paper does after observing "significant performance
  /// improvements" from it).  false starts from the ψ(u)=0 / ψ(v)=1
  /// initialisation instead (`g-pr-shr:initial-gr=0`; compare both with
  /// `table1_runtimes --algo g-pr-shr,g-pr-shr:initial-gr=0`).
  bool initial_global_relabel = true;

  /// Workload-balanced execution (Hsieh et al., arXiv:2404.00270), for
  /// every variant: the active-list driver compacts its list every
  /// main-loop iteration (emitting each survivor's degree) and launches
  /// the push through device::Device::launch_balanced over the degree
  /// prefix sum (device::balanced_offsets), which partitions *edges*
  /// rather than columns into equal chunks.  This removes the straggler
  /// problem of the paper's one-thread-per-column grid on degree-skewed
  /// graphs; the vertex-parallel schedule (kOff) remains the faithful
  /// reference, and kAuto picks per solve by measured degree skew.
  /// Registered as the `g-pr-wb` solver (default auto), and sweepable on
  /// any G-PR solver via the `balance=0|1|auto` option.
  BalanceMode balance = BalanceMode::kOff;

  /// Safety net against regressions in the termination argument: throw if
  /// the main loop exceeds `64·(m+n) + 1024` iterations.  0 disables.
  std::int64_t max_loops = -1;  ///< -1 = use the default bound

  [[nodiscard]] std::string describe() const;
};

inline std::string to_string(GprVariant v) {
  switch (v) {
    case GprVariant::kFirst: return "G-PR-First";
    case GprVariant::kNoShrink: return "G-PR-NoShr";
    case GprVariant::kShrink: return "G-PR-Shr";
  }
  return "?";
}

inline std::string to_string(RelabelStrategy s) {
  return s == RelabelStrategy::kFixed ? "fix" : "adaptive";
}

inline std::string to_string(BalanceMode b) {
  switch (b) {
    case BalanceMode::kOff: return "off";
    case BalanceMode::kOn: return "on";
    case BalanceMode::kAuto: return "auto";
  }
  return "?";
}

inline std::string GprOptions::describe() const {
  const std::string wb = balance == BalanceMode::kOn     ? "+WB"
                         : balance == BalanceMode::kAuto ? "+WB?"
                                                         : "";
  return to_string(variant) + wb + " (" + to_string(strategy) + ", " +
         std::to_string(k) + ")";
}

}  // namespace bpm::gpu
