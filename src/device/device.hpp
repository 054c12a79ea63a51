#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "device/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace bpm::device {

/// How kernel launches execute.
enum class ExecMode {
  /// One worker, indices in order.  Deterministic; used by tests to
  /// separate logic bugs from race bugs, and by the race ablation.
  kSequential,
  /// All pool workers, static index partition, arbitrary interleaving —
  /// the faithful model of a CUDA grid.
  kConcurrent,
};

/// Which execution backend an engine is.  Orthogonal to `ExecMode`: the
/// mode picks interleaving semantics (sequential vs concurrent), the
/// backend picks what a launch *costs* and how its items are chunked.
enum class Backend {
  /// The modeled C2050 simulator: per-launch `DeviceModel` charges
  /// (launch latency plus bulk item and work throughput) over equal-item
  /// worker chunks.  Its native time metric is the modeled device time.
  kSim,
  /// The real multicore host executor (`HostParallelEngine`): kernels run
  /// in parallel on the pool with dynamically claimed, oversubscribed
  /// chunks (edge-balanced ones in `launch_balanced`) and no model
  /// charges.  Its native time metric is measured wall clock.
  kHost,
};

/// "sim" | "host"; throws `std::invalid_argument` on anything else.
[[nodiscard]] Backend parse_backend(std::string_view name);
[[nodiscard]] std::string_view backend_name(Backend backend);

/// The process-wide default backend: `sim`, unless the BPM_DEVICE_BACKEND
/// environment variable says otherwise ("sim" | "host", read once).  Every
/// construction path that does not name a backend explicitly starts here —
/// this is how CI reruns the existing test suites on the host backend
/// without touching a single test.
[[nodiscard]] Backend default_backend();

/// Analytic timing model of a target GPU, used to report *modeled device
/// time* next to host wall time (README: Backends).  A kernel over n logical
/// threads that scans `work` adjacency entries is charged
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
/// nothing else.  It charges no per-thread straggler: degree skew, and the
/// edge balancing that removes it (`Device::launch_balanced`), show only in
/// the host backend's measured wall time.
struct DeviceModel {
  double launch_latency_us = 7.0;
  double ns_per_item = 0.2;  ///< per logical thread (device-wide effective)
  double ns_per_work = 0.6;  ///< per adjacency entry (device-wide effective)
};

/// What an engine *is*: its backend kind and the execution resources it
/// brings.  Surfaced through `Engine::descriptor()` so stats lines and
/// metrics can name the engine that did the work.
struct EngineDescriptor {
  Backend backend = Backend::kSim;
  ExecMode mode = ExecMode::kConcurrent;
  unsigned threads = 0;  ///< pool workers (0 = hardware concurrency)
  /// Worker threads behind a launch: the engine's resolved
  /// `num_workers()`, filled in once its pool exists.
  int workers = 0;
  /// Host backend: the smallest per-slot item count worth a pool
  /// dispatch.  Launches whose per-slot share would fall below it run
  /// inline on the calling thread (the serial cutoff every real host
  /// runtime applies); lower it to force fan-out on tiny grids (the TSan
  /// tests do).
  std::int64_t host_grain = 16384;

  /// One-line human-readable form, e.g. "host(workers=8)" or
  /// "sim(workers=1,seq)".
  [[nodiscard]] std::string summary() const;
};

struct DeviceOptions {
  /// Execution backend of the device's private engine (see `Backend`).
  /// Declared first so existing `{.mode = ..., .num_threads = ...}`
  /// initializers stay valid.
  Backend backend = default_backend();
  ExecMode mode = ExecMode::kConcurrent;
  /// Worker count; 0 = hardware concurrency.  Oversubscribing (threads >>
  /// cores) widens the space of observable interleavings — the race stress
  /// tests use this.
  unsigned num_threads = 0;
  DeviceModel model;
};

/// A `std::int64_t` padded to its own cache line.  Per-slot accumulators
/// written concurrently by different workers (launch_accounted's work
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
/// the launch/model totals those streams retired into it.  This is the
/// counter a long-running serving process reports — per-job streams come
/// and go, the engine's totals survive them all.
struct EngineStats {
  std::uint64_t streams_opened = 0;
  std::uint64_t streams_retired = 0;
  /// Totals folded in by retired streams (live streams' counters are
  /// theirs until destruction, so two streams' stats never mix).
  std::uint64_t launches = 0;
  double modeled_ms = 0.0;
  /// The backend's native time metric: measured in-kernel wall time for
  /// host engines, modeled device time for sim engines (see
  /// `Device::native_ms`).
  double native_ms = 0.0;
};

/// The shared execution backend of a device: the worker pool and the
/// execution mode.  One engine stands for one GPU — a pipeline or a
/// serving process owns exactly one; any number of `Device` streams
/// borrow its workers concurrently.  The engine itself is
/// stateless per launch — all launch counting and time modeling lives in
/// the streams — so sharing it never mixes two streams' stats; each stream
/// folds its totals into the engine's `EngineStats` when it retires.
class Engine {
 public:
  /// A sim engine (the pre-backend spelling, kept for the many call
  /// sites that only care about mode and worker count).
  explicit Engine(ExecMode mode = ExecMode::kConcurrent,
                  unsigned num_threads = 0);
  /// An engine of any backend.  The descriptor's `workers` field is
  /// resolved to the actual pool size.
  explicit Engine(EngineDescriptor descriptor);
  virtual ~Engine() = default;

  [[nodiscard]] ExecMode mode() const { return descriptor_.mode; }
  [[nodiscard]] Backend backend() const { return descriptor_.backend; }
  [[nodiscard]] const EngineDescriptor& descriptor() const {
    return descriptor_;
  }
  [[nodiscard]] unsigned num_workers() const {
    return pool_ ? pool_->size() : 1;
  }
  [[nodiscard]] ThreadPool* pool() { return pool_.get(); }

  /// Lifetime aggregates (streams opened/retired, retired launch and
  /// modeled-time totals).  Safe to call concurrently with stream churn.
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

/// The real multicore backend behind the `Engine` seam: kernel lambdas
/// actually run in parallel on the worker pool, chunks are claimed
/// dynamically (oversubscribed slots via `ThreadPool::run_tasks`, so a
/// straggler chunk never idles the other workers), `launch_balanced`
/// partitions *work* rather than items across the slots, and the native
/// time metric is measured wall clock instead of the C2050 model.
///
/// The class adds no state — backend behaviour lives in `Device`'s launch
/// paths, keyed off `Engine::backend()` — it is the named, documented way
/// to construct a host engine:
///
/// ```
/// auto engine = std::make_shared<device::HostParallelEngine>(8);
/// device::Device stream(engine);   // launches now run on 8 real threads
/// ```
class HostParallelEngine : public Engine {
 public:
  explicit HostParallelEngine(unsigned num_threads = 0,
                              ExecMode mode = ExecMode::kConcurrent)
      : Engine(EngineDescriptor{.backend = Backend::kHost,
                                .mode = mode,
                                .threads = num_threads}) {}
  explicit HostParallelEngine(EngineDescriptor descriptor) : Engine([&] {
          descriptor.backend = Backend::kHost;
          return descriptor;
        }()) {}
};

/// A CUDA-style bulk-synchronous execution stream on host threads.
///
/// `launch(n, kernel)` models one kernel launch over a grid of `n` logical
/// threads: `kernel(i)` runs for every `i` in `[0, n)`, concurrently and in
/// no particular order; the call returns only after all of them finish
/// (stream-order barrier).  Logical threads are statically partitioned
/// into contiguous chunks over the engine's workers, mirroring how the
/// paper maps columns/rows to CUDA threads.
///
/// A `Device` is a *stream* over a shared `Engine`: it owns its launch
/// counter and modeled-time accumulator but borrows the engine's worker
/// pool, so N streams can run N jobs concurrently without corrupting each
/// other's stats — the host-thread analogue of CUDA streams.  The
/// single-argument constructor keeps the original one-device-one-engine
/// behaviour for code that needs no cross-job concurrency.
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
  /// A device with its own private engine (the pre-stream behaviour).
  /// `options.backend` selects the sim engine or a `HostParallelEngine`.
  explicit Device(DeviceOptions options = {})
      : engine_(options.backend == Backend::kHost
                    ? std::make_shared<HostParallelEngine>(options.num_threads,
                                                           options.mode)
                    : std::make_shared<Engine>(
                          EngineDescriptor{.backend = options.backend,
                                           .mode = options.mode,
                                           .threads = options.num_threads})),
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
    if (engine_)
      engine_->retire_stream(launches_, modeled_us_, native_us());
  }

  [[nodiscard]] const std::shared_ptr<Engine>& engine() const {
    return engine_;
  }
  [[nodiscard]] ExecMode mode() const { return engine_->mode(); }
  [[nodiscard]] Backend backend() const { return engine_->backend(); }
  [[nodiscard]] unsigned num_workers() const { return engine_->num_workers(); }
  [[nodiscard]] std::uint64_t launches() const { return launches_; }
  void reset_launch_count() { launches_ = 0; }

  /// Optional trace collector.  When set *and enabled*, every launch
  /// records a span annotated with the backend and its grid size (the
  /// sim's accounted launches add the work they charged); when null or
  /// disabled the entire cost is one pointer check per launch.  The tracer
  /// must outlive the stream.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }
  [[nodiscard]] obs::Tracer* tracer() const { return tracer_; }

  /// Modeled device time accumulated on this stream (see DeviceModel).
  /// Kernels that report their work via `launch_accounted` contribute
  /// their work term; plain launches contribute latency + per-item cost
  /// only.  Always 0 on the host backend, whose launches are measured,
  /// not modeled — consumers that fall back to wall time when the model
  /// reads 0 (`bench::device_seconds`) do the right thing automatically.
  [[nodiscard]] double modeled_ms() const { return modeled_us_ / 1e3; }
  void reset_modeled_time() { modeled_us_ = 0.0; }

  /// The backend's native time metric for this stream: measured in-kernel
  /// wall time on the host backend, modeled device time on the sim — the
  /// number each backend itself claims a launch cost.
  [[nodiscard]] double native_ms() const { return native_us() / 1e3; }

  /// Adds work units to the model without a launch — for kernels whose
  /// work is easier to tally host-side (e.g. the shrink compaction's two
  /// resolve passes).  No-op on the host backend (measured, not modeled).
  void charge_work(std::int64_t work) {
    if (host()) return;
    modeled_us_ += static_cast<double>(work) * model_.ns_per_work * 1e-3;
  }

  /// One kernel launch: `kernel(i)` for all i in [0, n).
  template <typename Kernel>
  void launch(std::int64_t n, Kernel&& kernel) {
    auto sp = launch_span("launch", n);
    if (host()) {
      host_launch(n, kernel);
      return;
    }
    note_launch();
    account(n, 0);
    if (n <= 0) return;
    if (mode() == ExecMode::kSequential || num_workers() == 1) {
      for (std::int64_t i = 0; i < n; ++i) kernel(i);
      return;
    }
    const auto workers = static_cast<std::int64_t>(num_workers());
    const std::function<void(unsigned)> job = [&](unsigned w) {
      const auto [begin, end] = chunk(n, workers, w);
      for (std::int64_t i = begin; i < end; ++i) kernel(i);
    };
    engine_->pool()->run_tasks(num_workers(), job);
  }

  /// Like `launch`, but the kernel returns its work units (e.g. adjacency
  /// entries scanned), which feed the device time model: the sim sums them
  /// and charges `launch_latency + n·ns_per_item + work·ns_per_work` (see
  /// DeviceModel).  The charge is a deterministic function of the kernel's
  /// per-item work, identical in both execution modes and at any worker
  /// count.
  template <typename Kernel>
  void launch_accounted(std::int64_t n, Kernel&& kernel) {
    auto sp = launch_span("launch_accounted", n);
    if (host()) {
      // The host backend measures instead of modeling, so the kernel's
      // reported work units are not summed.
      host_launch(n, [&](std::int64_t i) { (void)kernel(i); });
      return;
    }
    sim_launch_accounted(sp, n, kernel);
  }

  /// One kernel launch over the items of an edge-balanced plan (the
  /// workload-balanced push of Hsieh et al., arXiv:2404.00270).
  ///
  /// `offsets` is the exclusive prefix sum of the per-item work estimates
  /// (degrees) with the grand total appended — size n+1, `offsets[0] ==
  /// 0`; build it with `device::balanced_offsets` (device/scan.hpp),
  /// which runs the scan on this device.  `kernel(i)` runs once per item
  /// in [0, n) and returns its actual work units, exactly like
  /// `launch_accounted`.
  ///
  /// On the host backend, items are partitioned into pool chunks of
  /// near-equal *work* rather than near-equal item count, each boundary
  /// located by binary search in `offsets` (`balanced_partition`), so one
  /// high-degree item can no longer serialize a chunk that also holds an
  /// equal share of everything else.  The sim models no stragglers, so
  /// there it is the same accounted launch as `launch_accounted` over the
  /// same items, and charges the same modeled time.
  template <typename Kernel>
  void launch_balanced(std::span<const std::int64_t> offsets,
                       Kernel&& kernel) {
    auto sp =
        launch_span("launch_balanced",
                    static_cast<std::int64_t>(offsets.size()) - 1);
    if (sp && !offsets.empty()) sp.arg("work_total", offsets.back());
    if (host()) {
      host_launch_balanced(offsets, kernel);
      return;
    }
    const auto n = static_cast<std::int64_t>(offsets.size()) - 1;
    sim_launch_accounted(sp, std::max<std::int64_t>(n, 0), kernel);
  }

  /// One kernel launch with the worker partition exposed:
  /// `kernel(worker_id, begin, end)` where the `[begin, end)` ranges
  /// partition `[0, n)`.  Also counts as a single launch, which the sim
  /// charges like a plain `launch`; callers add their work with
  /// `charge_work`.
  template <typename Kernel>
  void launch_chunked(std::int64_t n, Kernel&& kernel) {
    auto sp = launch_span("launch_chunked", n);
    note_launch();
    if (!host()) account(n, 0);
    if (n <= 0) return;
    if (host()) {
      const auto t0 = std::chrono::steady_clock::now();
      const std::int64_t grain =
          std::max<std::int64_t>(engine_->descriptor().host_grain, 1);
      // One chunk per worker is part of the contract (callers size
      // per-worker scratch by `num_workers()` and index it by the slot
      // id), so the host path keeps the sim's static partition and only
      // applies the serial cutoff: a grid below the grain runs inline as
      // worker 0, the remaining slots simply see empty ranges.
      if (mode() == ExecMode::kSequential || num_workers() == 1 ||
          n < grain) {
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
      return;
    }
    if (mode() == ExecMode::kSequential || num_workers() == 1) {
      kernel(0u, std::int64_t{0}, n);
      return;
    }
    const auto workers = static_cast<std::int64_t>(num_workers());
    const std::function<void(unsigned)> job = [&](unsigned w) {
      const auto [begin, end] = chunk(n, workers, w);
      kernel(w, begin, end);
    };
    engine_->pool()->run_tasks(num_workers(), job);
  }

 private:
  [[nodiscard]] bool host() const {
    return engine_->backend() == Backend::kHost;
  }

  /// One launch on this stream: the per-stream counter plus the always-on
  /// process-wide `device.launches.<backend>` registry counter (striped
  /// relaxed add — cheap enough for the thousands-of-tiny-launches runs).
  void note_launch() {
    ++launches_;
    launch_counter().inc();
  }

  [[nodiscard]] obs::Counter& launch_counter() {
    if (launch_counter_ == nullptr)
      launch_counter_ = &obs::Registry::global().counter(
          std::string("device.launches.") +
          std::string(backend_name(backend())));
    return *launch_counter_;
  }

  /// Span for one launch (inert when no tracer is attached or tracing is
  /// off), pre-annotated with the backend and grid size.
  [[nodiscard]] obs::Span launch_span(std::string_view name, std::int64_t n) {
    auto sp = obs::span(tracer_, name, "device");
    if (sp) {
      sp.arg("backend", backend_name(backend()));
      sp.arg("n", n);
    }
    return sp;
  }

  /// What this stream retires as its native time: the measured wall
  /// accumulator on the host backend, the model accumulator on the sim.
  [[nodiscard]] double native_us() const {
    return host() ? native_us_ : modeled_us_;
  }

  static double elapsed_us(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - t0)
        .count();
  }

  /// Pool slots a host launch of `n` units (items or work) fans out to.
  /// 1 below twice the grain — the serial cutoff that keeps the
  /// thousands of tiny launches a push-relabel run issues off the pool's
  /// fork-join path — otherwise one slot per grain, oversubscribed up to
  /// 8× the workers so `run_tasks`'s dynamic claiming absorbs straggler
  /// chunks.
  [[nodiscard]] std::int64_t host_slots(std::int64_t n) const {
    if (mode() == ExecMode::kSequential || num_workers() == 1) return 1;
    const std::int64_t grain =
        std::max<std::int64_t>(engine_->descriptor().host_grain, 1);
    if (n < 2 * grain) return 1;
    const auto workers = static_cast<std::int64_t>(num_workers());
    return std::clamp<std::int64_t>(n / grain, 1, workers * 8);
  }

  /// The host backend's `launch`: dynamic equal-item chunks over
  /// `host_slots` slots, measured wall time, no model bookkeeping.
  template <typename Kernel>
  void host_launch(std::int64_t n, Kernel&& kernel) {
    note_launch();
    if (n <= 0) return;
    const auto t0 = std::chrono::steady_clock::now();
    const std::int64_t slots = host_slots(n);
    if (slots <= 1) {
      for (std::int64_t i = 0; i < n; ++i) kernel(i);
    } else {
      const std::function<void(unsigned)> job = [&](unsigned s) {
        const auto [begin, end] = chunk(n, slots, s);
        for (std::int64_t i = begin; i < end; ++i) kernel(i);
      };
      engine_->pool()->run_tasks(static_cast<unsigned>(slots), job);
    }
    native_us_ += elapsed_us(t0);
  }

  /// The host backend's `launch_balanced`: chunk count sized by total
  /// *work* (`offsets.back()`), each pool slot's items bounded by
  /// `balanced_partition`.
  template <typename Kernel>
  void host_launch_balanced(std::span<const std::int64_t> offsets,
                            Kernel&& kernel) {
    note_launch();
    const auto n = static_cast<std::int64_t>(offsets.size()) - 1;
    if (n <= 0) return;
    const auto t0 = std::chrono::steady_clock::now();
    const std::int64_t total = offsets.back();
    const std::int64_t slots =
        std::min<std::int64_t>(host_slots(std::max(total, n)), n);
    if (slots <= 1) {
      for (std::int64_t i = 0; i < n; ++i) (void)kernel(i);
    } else {
      const auto bounds = balanced_partition(offsets, slots);
      const std::function<void(unsigned)> job = [&](unsigned s) {
        for (std::int64_t i = bounds[s]; i < bounds[s + 1]; ++i)
          (void)kernel(i);
      };
      engine_->pool()->run_tasks(static_cast<unsigned>(slots), job);
    }
    native_us_ += elapsed_us(t0);
  }

  void account(std::int64_t items, std::int64_t work) {
    modeled_us_ += model_.launch_latency_us +
                   (static_cast<double>(std::max<std::int64_t>(items, 0)) *
                        model_.ns_per_item +
                    static_cast<double>(work) * model_.ns_per_work) *
                       1e-3;
  }

  /// The sim's accounted launch: `kernel(i)` over equal-item worker
  /// chunks, summing the work units it returns (one `PaddedCount` partial
  /// per worker when it fans out), then `account(n, work)`.
  template <typename Kernel>
  void sim_launch_accounted(obs::Span& sp, std::int64_t n, Kernel& kernel) {
    note_launch();
    std::int64_t work = 0;
    // A sequential engine has no pool and reports one worker.
    const auto workers = std::min<std::int64_t>(num_workers(), n);
    if (workers <= 1) {
      for (std::int64_t i = 0; i < n; ++i) work += kernel(i);
    } else {
      std::vector<PaddedCount> partials(static_cast<std::size_t>(workers));
      const std::function<void(unsigned)> job = [&](unsigned w) {
        const auto [begin, end] = chunk(n, workers, w);
        std::int64_t sum = 0;
        for (std::int64_t i = begin; i < end; ++i) sum += kernel(i);
        partials[w].value = sum;
      };
      engine_->pool()->run_tasks(static_cast<unsigned>(workers), job);
      for (const PaddedCount& partial : partials) work += partial.value;
    }
    if (sp) sp.arg("work", work);
    account(n, work);
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
  double native_us_ = 0.0;  ///< host backend: measured in-kernel wall time
  obs::Tracer* tracer_ = nullptr;
  obs::Counter* launch_counter_ = nullptr;  ///< lazy, process-wide registry
};

}  // namespace bpm::device
