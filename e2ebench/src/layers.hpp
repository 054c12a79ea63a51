#pragma once

// Inputs and per-layer probes.  Each probe calls one layer's public
// functions directly from the benchmark, on the workload's own inputs, and
// emits that layer's per-layer metrics.

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/solver.hpp"
#include "device/device.hpp"
#include "graph/bipartite_graph.hpp"
#include "graph/instances.hpp"
#include "obs/trace.hpp"

namespace e2e {

/// One generated input with its oracle answer.
struct Input {
  std::string name;  ///< protocol / pipeline instance name
  bpm::graph::BipartiteGraph graph;
  bpm::graph::index_t maximum = 0;  ///< the benchmark's own oracle
  std::string path;                 ///< .mtx file, for served workloads
};

/// A stream on a private host-backend engine with `threads` workers.
[[nodiscard]] bpm::device::Device host_device(unsigned threads);
/// A solve context on `dev` with `threads` multicore solver threads.
[[nodiscard]] bpm::SolveContext solve_context(bpm::device::Device& dev,
                                              unsigned threads);
/// `prefix` followed by `i` ("c17").
[[nodiscard]] std::string indexed(std::string_view prefix, std::size_t i);

/// The Table I analogue called `name`.
[[nodiscard]] const bpm::graph::Instance& table1_instance(
    const std::string& name);

/// Generates `kind` at `scale` from `seed`, computes the oracle maximum,
/// and (when `path` is non-empty) writes it as Matrix Market.
[[nodiscard]] Input make_input(const bpm::graph::Instance& kind, double scale,
                               std::uint64_t seed, std::string name,
                               std::string path = {});

/// Metric names a layer reports, so a workload that does not run the
/// layer can report it as 0 (the layer did no work).
void zero_metrics(Report& report, const std::vector<std::string>& names,
                  const std::string& unit);

/// `admit.{init,fingerprint,features,ground_truth,total}_ms`: the medians
/// of `cheap_matching`, `structural_fingerprint`, `compute_features`,
/// `hopcroft_karp` and `admit_instance` over `inputs`.
void probe_admission(Report& report, const std::vector<const Input*>& inputs);

/// `gpr.*` from `gpu::g_pr` called directly (defaults = `g-pr-shr`) and
/// `ggr.*` from one standalone `gpu::g_gr` on the post-init state; means
/// over `inputs`.  Checks every G-PR answer against the oracle.
void probe_gpr(Report& report, const std::vector<const Input*>& inputs,
               unsigned threads);

/// `solve.ms.<spec>` / `solve.iterations.<spec>` via `Solver::run`,
/// `verify.is_maximum_ms` and `verify.overhead_ms` (`run_verified` minus
/// the solve it wraps), means over `inputs` × `specs`.  When `replay_id`
/// yields an id and `tracer` is enabled, the solve and its verification
/// are recorded as that request's replay (`solve`, `verify` spans).
void probe_solvers(
    Report& report, const std::vector<const Input*>& inputs,
    const std::vector<std::string>& specs, unsigned threads,
    bpm::obs::Tracer* tracer,
    const std::function<std::optional<std::uint64_t>(std::size_t input,
                                                     std::size_t spec)>&
        replay_id);

/// `proto.parse_us.p50`: `proto::parse_command` per line over `lines`.
void probe_proto(Report& report, const std::vector<std::string>& lines);

/// `cache.get_us.p50` and `cache.put_us.p50` on a standalone
/// `serve::ResultCache` holding one entry per (fingerprint, spec) of the
/// workload: gets hit when `hits`, miss otherwise.
void probe_cache(Report& report, const std::vector<const Input*>& inputs,
                 const std::vector<std::string>& specs, bool hits);

/// `graph.mtx_read_ms`: median `read_matrix_market_file` over the files.
void probe_mtx_read(Report& report, const std::vector<const Input*>& inputs);

/// Median wall time of `fn` in microseconds, each sample the mean of
/// `batch` back-to-back calls (sub-microsecond calls need batching).
[[nodiscard]] double median_us(int samples, int batch,
                               const std::function<void()>& fn);

}  // namespace e2e
