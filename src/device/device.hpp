#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "device/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace bpm::device {

/// Nothing reads this; ROADMAP item 2 deletes it with its benchmark uses.
enum class Backend { kHost };

/// Analytic timing model of a target GPU, charged on every launch so every
/// run reports *modeled device time* next to its measured wall time
/// (README: Device engine).  A kernel over n logical threads that scans
/// `work` adjacency entries is charged
///
///   launch_latency_us + (n·ns_per_item + work·ns_per_work) · 1e-3
///
/// where the per-unit rates are *device-wide effective* costs.  Defaults
/// approximate the paper's Tesla C2050:
///  * 7 µs kernel launch latency (Fermi era) — this is why deep-BFS
///    instances (hugetrace, italy_osm) lose: one launch per level;
///  * ns_per_item = 0.2 (5 G logical threads/s): a near-trivial predicate
///    plus one coalesced 4-byte ψ read per thread, ≈ 20 GB/s of the
///    C2050's 144 GB/s — compute-side 448 cores × 1.15 GHz bound it too;
///  * ns_per_work = 0.6 (1.7 G adjacency entries/s): an irregular gather
///    of ψ(u) per CSR entry plus the entry itself, 8–12 bytes at poor
///    coalescing.
/// Sanity anchors against Table I: a hugetrace-scale global relabel
/// (≈3000 levels × (7 µs + 4.6 M rows · 0.2 ns)) models to ≈2.8 s vs the
/// paper's 2.71 s; delaunay_n20 models to ≈60 ms vs the paper's 0.06 s.
///
/// The model captures two effects — launch-latency domination on
/// high-diameter graphs and bandwidth-bound bulk work on wide ones — and
/// nothing else.  It is a pure function of each launch's `(n, work)`, so
/// it is the same however the launch fans out.  It charges no per-thread
/// straggler: degree skew, and the edge balancing that removes it
/// (`Device::launch_balanced`), show only in the measured wall time.
struct DeviceModel {
  double launch_latency_us = 7.0;
  double ns_per_item = 0.2;  ///< per logical thread (device-wide effective)
  double ns_per_work = 0.6;  ///< per adjacency entry (device-wide effective)
};

/// What an engine *is*: the execution resources it brings.  Surfaced
/// through `Engine::descriptor()` so stats lines and metrics can name the
/// engine that did the work.
struct EngineDescriptor {
  /// Worker threads (0 = hardware concurrency).  One worker runs every
  /// launch inline on the calling thread, indices in order: the
  /// deterministic configuration.  More fan a launch at or above the
  /// grain out into dynamically claimed chunks (edge-balanced ones in
  /// `launch_balanced`) that run in arbitrary interleaving.
  unsigned threads = 0;
  /// Worker threads behind a launch: the engine's resolved
  /// `num_workers()`, filled in at construction.
  int workers = 0;
  /// The smallest per-slot item count worth a pool dispatch.  Launches
  /// whose per-slot share would fall below it run inline on the calling
  /// thread (the serial cutoff every real host runtime applies); lower it
  /// to 1 to force fan-out on tiny grids (the race tests do).
  std::int64_t grain = 16384;

  /// One-line human-readable form, e.g. "host(workers=8)".
  [[nodiscard]] std::string summary() const;
};

struct DeviceOptions {
  /// Nothing reads this; ROADMAP item 2 deletes it with its benchmark uses.
  Backend backend = Backend::kHost;
  /// Worker count (`EngineDescriptor::threads`); 0 = hardware concurrency.
  /// Oversubscribing (threads >> cores) widens the space of observable
  /// interleavings — the race stress tests use this.
  unsigned num_threads = 0;
  DeviceModel model;
};

/// A `std::int64_t` padded to its own cache line.  Per-slot accumulators
/// written concurrently by different workers (the accounted launches' work
/// partials, the shrink kernel's per-worker counts) must not share lines,
/// or every increment ping-pongs the line between cores.
struct alignas(64) PaddedCount {
  std::int64_t value = 0;
};

/// Item boundaries of an edge-balanced partition: splits the `n` items
/// whose exclusive work prefix sum is `offsets` (size n+1, `offsets[0] ==
/// 0`, grand total at the back) into `parts` contiguous chunks of
/// near-equal *work*, each boundary located by binary search at the ideal
/// target `total·p/parts`.  Returns `parts + 1` item indices starting at 0
/// and ending at n; every item falls in exactly one chunk and every
/// chunk's work is within one maximum item work of the ideal
/// `total/parts`.  Throws `std::invalid_argument` on an empty or
/// non-exclusive-prefix `offsets` span or `parts < 1`.
[[nodiscard]] std::vector<std::int64_t> balanced_partition(
    std::span<const std::int64_t> offsets, std::int64_t parts);

/// Lifetime aggregates of one engine: how many streams it has served and
/// the launch and time totals those streams retired into it.  This is the
/// counter a long-running serving process reports — per-job streams come
/// and go, the engine's totals survive them all.
struct EngineStats {
  std::uint64_t streams_opened = 0;
  std::uint64_t streams_retired = 0;
  /// Totals folded in by retired streams (live streams' counters are
  /// theirs until destruction, so two streams' stats never mix).
  std::uint64_t launches = 0;
  double modeled_ms = 0.0;  ///< the C2050 model (`Device::modeled_ms`)
  double native_ms = 0.0;   ///< measured in-kernel wall time
};

/// The shared execution resources of a device: its worker pool.  One
/// engine stands for one GPU — a pipeline or a serving process owns
/// exactly one; any number of `Device` streams borrow its workers
/// concurrently.  The engine itself is stateless per launch — all launch
/// counting and time accounting lives in the streams — so sharing it never
/// mixes two streams' stats; each stream folds its totals into the
/// engine's `EngineStats` when it retires.
class Engine {
 public:
  /// `num_threads` 0 resolves to hardware concurrency; a pool is built
  /// only for more than one worker.
  explicit Engine(unsigned num_threads = 0);
  /// The descriptor's `workers` field is resolved to the actual pool size.
  explicit Engine(EngineDescriptor descriptor);

  [[nodiscard]] const EngineDescriptor& descriptor() const {
    return descriptor_;
  }
  [[nodiscard]] unsigned num_workers() const {
    return pool_ ? pool_->size() : 1;
  }
  [[nodiscard]] ThreadPool* pool() { return pool_.get(); }

  /// Lifetime aggregates (streams opened/retired, retired launch and
  /// time totals).  Safe to call concurrently with stream churn.
  [[nodiscard]] EngineStats stats() const;

  /// Stream bookkeeping, called by `Device`.
  void note_stream_opened();
  void retire_stream(std::uint64_t launches, double modeled_us,
                     double native_us);

 private:
  EngineDescriptor descriptor_;
  std::unique_ptr<ThreadPool> pool_;
  mutable std::mutex stats_mutex_;
  EngineStats stats_;
};

/// A CUDA-style bulk-synchronous execution stream on host threads.
///
/// `launch(n, kernel)` models one kernel launch over a grid of `n` logical
/// threads: `kernel(i)` runs for every `i` in `[0, n)`, concurrently and in
/// no particular order; the call returns only after all of them finish
/// (stream-order barrier).  A grid of at least twice the engine's grain
/// is split into contiguous chunks, one per grain and up to 8× the
/// workers, which the pool's workers claim dynamically, so a straggler
/// chunk never idles the others; a smaller grid runs inline.
///
/// A `Device` is a *stream* over a shared `Engine`: it owns its launch
/// counter and time accumulators but borrows the engine's worker pool, so
/// N streams can run N jobs concurrently without corrupting each other's
/// stats — the host-thread analogue of CUDA streams.  The
/// single-argument constructor gives the stream a private engine.
///
/// Every launch reports two times, each with one meaning: `native_ms` is
/// the measured in-kernel wall time, and `modeled_ms` is the C2050 model
/// (`DeviceModel`) charged for the launch's `(n, work)`.
///
/// `launch_chunked` exposes the partition itself — kernels like
/// G-PR-SHRKRNL need per-physical-thread counting followed by a prefix sum
/// over the thread-private counts (paper §III-C2).  The `worker` argument
/// is the chunk slot, unique within the launch.
///
/// Streams count launches: the paper's global-relabeling policies are
/// expressed in units of push-kernel executions, and the experiment
/// harnesses report launch totals.
class Device {
 public:
  /// A device with its own private engine.
  explicit Device(DeviceOptions options = {})
      : engine_(std::make_shared<Engine>(options.num_threads)),
        model_(options.model) {
    engine_->note_stream_opened();
  }

  /// A stream on `engine`: borrowed workers, own stats.
  explicit Device(std::shared_ptr<Engine> engine, DeviceModel model = {})
      : engine_(std::move(engine)), model_(model) {
    engine_->note_stream_opened();
  }

  /// Streams are movable but not copyable: each one's counters retire
  /// into the engine's lifetime stats exactly once, on destruction.
  Device(Device&&) noexcept = default;
  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;
  Device& operator=(Device&&) = delete;

  ~Device() {
    if (engine_) engine_->retire_stream(launches_, modeled_us_, native_us_);
  }

  [[nodiscard]] const std::shared_ptr<Engine>& engine() const {
    return engine_;
  }
  [[nodiscard]] unsigned num_workers() const { return engine_->num_workers(); }
  [[nodiscard]] std::uint64_t launches() const { return launches_; }
  void reset_launch_count() { launches_ = 0; }

  /// Optional trace collector.  When set *and enabled*, every launch
  /// records a span annotated with its grid size (accounted launches add
  /// the work they charged); when null or disabled the entire cost is one
  /// pointer check per launch.  The tracer must outlive the stream.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }
  [[nodiscard]] obs::Tracer* tracer() const { return tracer_; }

  /// Modeled device time accumulated on this stream (see DeviceModel).
  /// Kernels that report their work via `launch_accounted` or
  /// `launch_balanced` contribute their work term; plain launches
  /// contribute latency + per-item cost only.
  [[nodiscard]] double modeled_ms() const { return modeled_us_ / 1e3; }
  void reset_modeled_time() { modeled_us_ = 0.0; }

  /// Measured in-kernel wall time accumulated on this stream.
  [[nodiscard]] double native_ms() const { return native_us_ / 1e3; }

  /// Adds work units to the model without a launch — for kernels whose
  /// work is easier to tally host-side (e.g. the shrink compaction's two
  /// resolve passes).
  void charge_work(std::int64_t work) {
    modeled_us_ += static_cast<double>(work) * model_.ns_per_work * 1e-3;
  }

  /// One kernel launch: `kernel(i)` for all i in [0, n).
  template <typename Kernel>
  void launch(std::int64_t n, Kernel&& kernel) {
    auto sp = launch_span("launch", n);
    run_items(n, {}, [&](std::int64_t i) { kernel(i); });
    account(n, 0);
  }

  /// Like `launch`, but the kernel returns its work units (e.g. adjacency
  /// entries scanned), which feed the device time model: the launch sums
  /// them and charges `launch_latency + n·ns_per_item + work·ns_per_work`
  /// (see DeviceModel).  The charge is a deterministic function of the
  /// kernel's per-item work, identical at any worker count or grain.
  template <typename Kernel>
  void launch_accounted(std::int64_t n, Kernel&& kernel) {
    auto sp = launch_span("launch_accounted", n);
    const std::int64_t work = run_items(n, {}, kernel);
    if (sp) sp.arg("work", work);
    account(n, work);
  }

  /// One kernel launch over the items of an edge-balanced plan (the
  /// workload-balanced push of Hsieh et al., arXiv:2404.00270).
  ///
  /// `offsets` is the exclusive prefix sum of the per-item work estimates
  /// (degrees) with the grand total appended — size n+1, `offsets[0] ==
  /// 0`; build it with `device::balanced_offsets` (device/scan.hpp),
  /// which runs the scan on this device.  `kernel(i)` runs once per item
  /// in [0, n) and returns its actual work units, exactly like
  /// `launch_accounted`, and the launch is charged the same modeled time.
  ///
  /// Items are partitioned into pool chunks of near-equal *work* rather
  /// than near-equal item count, each boundary located by binary search in
  /// `offsets` (`balanced_partition`), so one high-degree item can no
  /// longer serialize a chunk that also holds an equal share of
  /// everything else.
  template <typename Kernel>
  void launch_balanced(std::span<const std::int64_t> offsets,
                       Kernel&& kernel) {
    const auto n = std::max<std::int64_t>(
        static_cast<std::int64_t>(offsets.size()) - 1, 0);
    auto sp = launch_span("launch_balanced", n);
    if (sp && !offsets.empty()) sp.arg("work_total", offsets.back());
    const std::int64_t work = run_items(n, offsets, kernel);
    if (sp) sp.arg("work", work);
    account(n, work);
  }

  /// One kernel launch with the worker partition exposed:
  /// `kernel(worker_id, begin, end)` where the `[begin, end)` ranges
  /// partition `[0, n)`.  Also counts as a single launch, charged like a
  /// plain `launch`; callers add their work with `charge_work`.
  template <typename Kernel>
  void launch_chunked(std::int64_t n, Kernel&& kernel) {
    auto sp = launch_span("launch_chunked", n);
    note_launch();
    account(n, 0);
    if (n <= 0) return;
    const auto t0 = std::chrono::steady_clock::now();
    // One chunk per worker is part of the contract (callers size
    // per-worker scratch by `num_workers()` and index it by the slot id),
    // so the partition is static and only the serial cutoff applies: a
    // grid below the grain runs inline as worker 0, and the remaining
    // slots simply see empty ranges.
    if (num_workers() == 1 || n < grain()) {
      kernel(0u, std::int64_t{0}, n);
    } else {
      const auto workers = static_cast<std::int64_t>(num_workers());
      const std::function<void(unsigned)> job = [&](unsigned w) {
        const auto [begin, end] = chunk(n, workers, w);
        kernel(w, begin, end);
      };
      engine_->pool()->run_tasks(num_workers(), job);
    }
    native_us_ += elapsed_us(t0);
  }

 private:
  /// One launch on this stream: the per-stream counter plus the always-on
  /// process-wide `device.launches` registry counter (striped relaxed add
  /// — cheap enough for the thousands-of-tiny-launches runs).
  void note_launch() {
    ++launches_;
    if (launch_counter_ == nullptr)
      launch_counter_ = &obs::Registry::global().counter("device.launches");
    launch_counter_->inc();
  }

  /// Span for one launch (inert when no tracer is attached or tracing is
  /// off), pre-annotated with the grid size.
  [[nodiscard]] obs::Span launch_span(std::string_view name, std::int64_t n) {
    auto sp = obs::span(tracer_, name, "device");
    if (sp) sp.arg("n", n);
    return sp;
  }

  [[nodiscard]] std::int64_t grain() const {
    return std::max<std::int64_t>(engine_->descriptor().grain, 1);
  }

  static double elapsed_us(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - t0)
        .count();
  }

  /// Pool slots a launch of `n` units (items or work) fans out to.  1
  /// below twice the grain — the serial cutoff that keeps the thousands of
  /// tiny launches a push-relabel run issues off the pool's fork-join path
  /// — otherwise one slot per grain, oversubscribed up to 8× the workers
  /// so `run_tasks`'s dynamic claiming absorbs straggler chunks.
  [[nodiscard]] std::int64_t slots_for(std::int64_t n) const {
    if (num_workers() == 1 || n < 2 * grain()) return 1;
    const auto workers = static_cast<std::int64_t>(num_workers());
    return std::clamp<std::int64_t>(n / grain(), 1, workers * 8);
  }

  /// The execution path behind `launch`, `launch_accounted` and
  /// `launch_balanced`: counts the launch, runs `kernel(i)` once for every
  /// i in [0, n) and adds the measured wall time.  Slots hold near-equal
  /// item counts, or near-equal work when `offsets` (the balanced plan) is
  /// given.  Returns the sum of the work units the kernel returns (one
  /// `PaddedCount` partial per slot when it fans out); 0 for a void kernel.
  template <typename Kernel>
  std::int64_t run_items(std::int64_t n, std::span<const std::int64_t> offsets,
                         Kernel&& kernel) {
    note_launch();
    if (n <= 0) return 0;
    const auto t0 = std::chrono::steady_clock::now();
    const auto range_work = [&](std::int64_t begin, std::int64_t end) {
      std::int64_t sum = 0;
      for (std::int64_t i = begin; i < end; ++i) {
        if constexpr (std::is_void_v<std::invoke_result_t<Kernel&,
                                                          std::int64_t>>)
          kernel(i);
        else
          sum += kernel(i);
      }
      return sum;
    };
    std::int64_t work = 0;
    const std::int64_t slots =
        offsets.empty()
            ? slots_for(n)
            : std::min<std::int64_t>(slots_for(std::max(offsets.back(), n)),
                                     n);
    if (slots <= 1) {
      work = range_work(0, n);
    } else {
      const std::vector<std::int64_t> bounds =
          offsets.empty() ? std::vector<std::int64_t>{}
                          : balanced_partition(offsets, slots);
      std::vector<PaddedCount> partials(static_cast<std::size_t>(slots));
      const std::function<void(unsigned)> job = [&](unsigned s) {
        const auto [begin, end] =
            bounds.empty() ? chunk(n, slots, s)
                           : std::pair{bounds[s], bounds[s + 1]};
        partials[s].value = range_work(begin, end);
      };
      engine_->pool()->run_tasks(static_cast<unsigned>(slots), job);
      for (const PaddedCount& partial : partials) work += partial.value;
    }
    native_us_ += elapsed_us(t0);
    return work;
  }

  void account(std::int64_t items, std::int64_t work) {
    modeled_us_ += model_.launch_latency_us +
                   (static_cast<double>(std::max<std::int64_t>(items, 0)) *
                        model_.ns_per_item +
                    static_cast<double>(work) * model_.ns_per_work) *
                       1e-3;
  }

  static std::pair<std::int64_t, std::int64_t> chunk(std::int64_t n,
                                                     std::int64_t workers,
                                                     unsigned w) {
    const std::int64_t per = n / workers;
    const std::int64_t extra = n % workers;
    const auto wi = static_cast<std::int64_t>(w);
    const std::int64_t begin = wi * per + std::min(wi, extra);
    const std::int64_t end = begin + per + (wi < extra ? 1 : 0);
    return {begin, end};
  }

  std::shared_ptr<Engine> engine_;
  DeviceModel model_;
  std::uint64_t launches_ = 0;
  double modeled_us_ = 0.0;
  double native_us_ = 0.0;  ///< measured in-kernel wall time
  obs::Tracer* tracer_ = nullptr;
  obs::Counter* launch_counter_ = nullptr;  ///< lazy, process-wide registry
};

}  // namespace bpm::device
