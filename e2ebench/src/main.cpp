// e2ebench — the repository's end-to-end, layer-by-layer benchmark.
//
//   e2ebench --workload <serve_cold|serve_warm|table1_batch> --seed <n>
//            --seconds <s> --trace <0|1> --serve-binary <path/to/bpm_serve>
//            --work-dir <dir> --trace-dir <dir> [--git-sha <sha>] [--tiny]
//
// Normally started by run.py, which builds this package and `bpm_serve`
// from source first.  Every input is generated here from --seed (Table I
// analogues, written as Matrix Market files where the server loads them);
// the program under test receives only those inputs.  Every answer is
// checked against the benchmark's own Hopcroft–Karp oracle, computed during
// input generation (never timed, and never the `max=` field of a `load`
// reply).  The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
//
// Workloads, and why each exists
// ------------------------------
// serve_cold    One socket client, closed loop, against a `bpm_serve
//               --listen --backend host` child.  Each request `load`s a
//               fresh Table I analogue written during input generation
//               (its own seed, so nothing dedups or hits the cache), then
//               `submit`s one spec (rotating g-pr-shr, seq-pr, hk) and
//               `wait`s.  What a new client pays: parsing, admission (init,
//               fingerprint, features, HK ground truth) and the solve
//               dominate; the instance store and result cache only take
//               writes.  A run measures 20 requests per second of --seconds
//               (fewer only if --seconds runs out), so the store — and peak
//               RSS — holds the same count on a faster build.
// serve_warm    Two socket clients, closed loop, `submit` + `wait` over
//               (instance, spec) pairs registered and solved once during
//               set-up, so every timed request is a cache hit.  The read
//               path: transport, protocol decode, session, queue, dispatch
//               and cache probe are the whole cost; solver and admission
//               changes should leave it unchanged.  Runnable by name but
//               not among BENCHMARK.json's workloads: on a shared virtual
//               machine its p95 and throughput drop into a slow mode
//               (millisecond cross-CPU wake-ups) whenever the host is busy,
//               so its run-to-run spread exceeds any bound.
// table1_batch  An in-process `MatchingPipeline`, one job at a time through
//               its per-job path, no shared cache, over the Table I
//               stride-3 subset — eight graphs per instance, each from its
//               own seed, at 0.3% of the paper's sizes — admitted during
//               set-up, × {g-pr-shr, g-pr-wb, seq-pr, hk, p-dbfs}, in whole
//               passes.  The paper's own experiment: solve and verify are
//               the whole cost, G-PR's global relabel is on the blocking
//               path, no serving layer runs.
// Specs are fixed, never `auto`; seq-pr runs as `seq-pr:gap=0` (see
// kServeSpecs in common.hpp).  Counts are fixed, never "0 = hardware":
// 1 device thread per engine and 1 multicore solver thread (see
// Config::threads), 2 server workers, 2 transport executors.
//
// End-to-end metrics (--trace 0; tracing off)
// -------------------------------------------
// setup_s          median of 3 set-ups in the run: server spawn until
//                  ready, instance registration, the warm-up pass (input
//                  generation and oracle solves excluded).
// request_ms.p50   one logical request as the client sees it: cold `load`
//                  sent → `result` received; warm `submit` sent → `result`
//                  received; table1 one pipeline job.
// request_ms.p95   the p95, or the highest percentile leaving ten samples
//                  beyond it; the sample count is noted above the result.
// throughput_rps   completed requests per second of the measured phase.
//                  These three are medians over up to ten windows of
//                  consecutive requests (see request_metrics).
// success_rate     1 − failed/attempted (rejected, `error`, timed-out and
//                  wrong-cardinality requests fail).  The error rate itself
//                  is `failed`/`attempted` in the result line.
// peak_rss_mb      peak resident memory of the process under test: the
//                  `bpm_serve` child, or for table1 this process over the
//                  measured phase (peak reset after set-up).
//
// Per-layer metrics (--trace 1) and what each should move
// -------------------------------------------------------
// The traced run measures half of --seconds untraced and half with the
// benchmark's spans and the server's own tracer on, then replays traced
// requests layer by layer in process under the same request ids and probes
// each layer through its public functions on the workload's inputs.
// Layers a workload does not run report 0.
//   serve/transport  transport.roundtrip_us.p50, transport.overhead_us.p50
//                    (socket round trip of `submit` minus in-process
//                    Session::execute of the same line), transport.lines,
//                    transport.errors → request_ms.*, throughput_rps on
//                    serve_warm; under 1% of serve_cold.
//   serve/proto      proto.parse_us.p50 (parse_command over the recorded
//                    lines) → serve_warm.
//   serve/session    session.execute_us.submit, session.execute_us.wait_hit
//                    → serve_warm; session.execute_ms.load → serve_cold.
//   graph            graph.mtx_read_ms, graph.edges_per_request → serve_cold.
//   admission        admit.init_ms, admit.fingerprint_ms, admit.features_ms,
//                    admit.ground_truth_ms, admit.total_ms, admit.share →
//                    request_ms.*, throughput_rps on serve_cold; setup_s on
//                    serve_warm and table1_batch.
//   serve/service    service.queue_ms.p50, service.dispatch_gap_ms.p50 →
//                    serve_warm; service.service_ms.p50 → serve_cold;
//                    service.{dispatches,coalesced,fanout_hits,rejected,
//                    failed} counters.
//   serve/result_cache  cache.get_us.p50 → serve_warm; cache.put_us.p50,
//                    cache.insertions, cache.evictions, cache.bytes →
//                    serve_cold; cache.hit_ratio is 1 on serve_warm and 0
//                    on serve_cold.
//   serve/instance_store  store.instances, store.rss_mb_per_instance →
//                    peak_rss_mb on serve_cold.
//   serve/engine_group, device  engine.dispatches, engine.launches,
//                    engine.native_ms, device.launch_us (in-kernel wall per
//                    launch of the workload's engines) → table1_batch.
//   core G-PR        gpr.{total,gr,push,fix}_ms, gpr.gr_share,
//                    gpr.global_relabels, gpr.gr_level_kernels, gpr.loops
//                    (gpu::g_pr called directly), ggr.call_ms,
//                    ggr.level_kernels (one gpu::g_gr on the post-init
//                    state) → throughput_rps, request_ms.p95 on
//                    table1_batch and the g-pr-shr third of serve_cold.
//   solvers          solve.ms.<spec>, solve.iterations.<spec> via
//                    Solver::run → table1_batch, serve_cold.
//   verification     verify.is_maximum_ms, verify.overhead_ms (run_verified
//                    minus Solver::run) → table1_batch, serve_cold.
//   obs              trace.overhead_ratio (traced over untraced
//                    request_ms.p50), unattributed_ms.p50 (request time no
//                    replayed layer accounts for), self_ms.<layer> (mean
//                    self time per request from the spans).

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "e2ebench: " << why
            << "\nusage: e2ebench --workload serve_cold|serve_warm|table1_batch "
               "--seed N --seconds S --trace 0|1 --serve-binary PATH "
               "--work-dir DIR --trace-dir DIR [--git-sha SHA] [--tiny]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tiny") {
      cfg.tiny = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") cfg.workload = value;
      else if (arg == "--seed") cfg.seed = std::stoull(value);
      else if (arg == "--seconds") cfg.seconds = std::stod(value);
      else if (arg == "--trace") cfg.trace = std::stoi(value) != 0;
      else if (arg == "--serve-binary") cfg.serve_binary = value;
      else if (arg == "--work-dir") cfg.work_dir = value;
      else if (arg == "--trace-dir") cfg.trace_dir = value;
      else if (arg == "--git-sha") cfg.git_sha = value;
      else usage("unknown option " + arg);
    } catch (const std::logic_error&) {
      usage("bad value for " + arg + ": " + value);
    }
  }
  if (cfg.workload != "serve_cold" && cfg.workload != "serve_warm" &&
      cfg.workload != "table1_batch")
    usage("unknown workload '" + cfg.workload + "'");
  if (cfg.seconds <= 0) usage("--seconds must be positive");
  if (cfg.work_dir.empty() || cfg.trace_dir.empty() ||
      (cfg.workload != "table1_batch" && cfg.serve_binary.empty()))
    usage("--work-dir, --trace-dir and --serve-binary are required");
  if (cfg.tiny || cfg.trace) cfg.setup_reps = 1;

  // One private input directory per run, removed when the run ends.
  cfg.work_dir += "/" + cfg.workload + "-seed" + std::to_string(cfg.seed) +
                  "-pid" + std::to_string(::getpid());
  std::filesystem::create_directories(cfg.work_dir);
  std::filesystem::create_directories(cfg.trace_dir);

  int status = 1;
  try {
    e2e::machine_block(cfg, cfg.workload == "serve_warm"   ? 2
                            : cfg.workload == "serve_cold" ? 1
                                                           : 0);
    const e2e::Report report =
        cfg.workload == "serve_cold"   ? e2e::run_serve_cold(cfg)
        : cfg.workload == "serve_warm" ? e2e::run_serve_warm(cfg)
                                       : e2e::run_table1_batch(cfg);
    e2e::print_result(report);
    status = 0;
  } catch (const std::exception& e) {
    std::cerr << "e2ebench: " << cfg.workload << " failed: " << e.what()
              << "\n";
  }
  std::error_code ec;
  std::filesystem::remove_all(cfg.work_dir, ec);
  return status;
}
