#pragma once

#include <cstdint>

namespace bpm::gpu {

/// Execution counters and timing breakdown of one G-PR run.
struct GprStats {
  std::int64_t loops = 0;            ///< main-loop iterations (Alg 3/7 line 4/5)
  std::int64_t global_relabels = 0;  ///< G-GR invocations
  std::int64_t gr_level_kernels = 0; ///< total G-GR-KRNL launches (BFS levels)
  std::int64_t shrinks = 0;          ///< active-list compactions (SHRKRNL)
  /// balance=auto's input: max/mean degree over the initially unmatched
  /// columns (0 when the solve never measured it, i.e. balance != auto).
  double balance_skew = 0.0;
  bool balanced = false;  ///< ran the workload-balanced schedule

  double gr_ms = 0.0;     ///< time in global relabeling
  double push_ms = 0.0;   ///< time in INIT/PUSH/SHR kernels
  double fix_ms = 0.0;    ///< FIXMATCHING + host transfers
  double total_ms = 0.0;
};

/// Counters of one G-HK / G-HKDW run.
struct GhkStats {
  std::int64_t phases = 0;
  std::int64_t bfs_level_kernels = 0;
  std::int64_t augmentations = 0;
  std::int64_t dw_augmentations = 0;
  std::int64_t sequential_fallbacks = 0;  ///< host augmentations forced by
                                          ///< total claim-validation failure
};

}  // namespace bpm::gpu
