#pragma once

#include "common.hpp"

namespace e2e {

/// One run of a workload: set-up (timed `setup_reps` times), the measured
/// phase, and — with `cfg.trace` — the traced phase, the in-process replay
/// and the layer probes.  Throws on an unrecoverable failure (the server
/// died, a reply timed out).
[[nodiscard]] Report run_serve_cold(const Config& cfg);
[[nodiscard]] Report run_serve_warm(const Config& cfg);
[[nodiscard]] Report run_table1_batch(const Config& cfg);

}  // namespace e2e
