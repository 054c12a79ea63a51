#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "device/device.hpp"

namespace bpm::serve {

/// How an `EngineGroup` picks the engine for the next dispatch.
enum class Routing {
  /// Cycle through the live engines in index order, load-blind.
  kRoundRobin,
  /// Lowest in-flight modeled work (`device::Engine::load`); ties go to
  /// the engine with the fewest lifetime dispatches, then the lowest
  /// index, so a cold pool fans out instead of piling onto engine 0.
  kLeastLoaded,
  /// Sticky (instance fingerprint → engine) map: dispatches of a graph
  /// keep landing on the engine that already ran it — the cache-warm
  /// placement — until the mapping is evicted (capacity or retirement).
  /// Unmapped fingerprints fall back to the least-loaded pick.
  kAffinity,
  /// Place by backend fit in a (possibly mixed) pool: tiny dispatches go
  /// to the engine with the fewest lanes (the cheapest one to occupy);
  /// skewed, huge, or balanced-kernel dispatches go to host engines with
  /// the most workers (where edge-balanced chunks are real parallelism);
  /// everything else falls back to the least-loaded pick.  Thresholds in
  /// `EngineGroupOptions::fit_*`; the dispatch shape comes from
  /// `DispatchProfile`.
  kBackendFit,
};

/// "round-robin" | "least-loaded" | "affinity" | "backend-fit"; throws
/// `std::invalid_argument` (listing the policies) on anything else.
[[nodiscard]] Routing parse_routing(std::string_view name);
[[nodiscard]] std::string_view routing_name(Routing routing);

struct EngineGroupOptions {
  unsigned engines = 1;  ///< pool size (rounded up to at least 1)
  Routing routing = Routing::kLeastLoaded;
  /// Backend of every engine in a uniform pool (ignored when
  /// `descriptors` is non-empty).
  device::Backend backend = device::default_backend();
  device::ExecMode device_mode = device::ExecMode::kConcurrent;
  unsigned device_threads = 0;  ///< per-engine pool workers (0 = hardware)
  /// Explicit per-engine descriptors — a *mixed* pool (sim next to host,
  /// differing worker counts).  Non-empty overrides `engines`/`backend`/
  /// `device_mode`/`device_threads`; one engine is built per entry.
  std::vector<device::EngineDescriptor> descriptors;
  /// Bound on sticky (fingerprint → engine) entries under `kAffinity`;
  /// beyond it the least-recently dispatched mapping is evicted.
  std::size_t affinity_capacity = 1024;
  /// `kBackendFit` thresholds: a dispatch below `fit_tiny_work` estimated
  /// work units is tiny; one at/above `fit_huge_work`, with
  /// `DispatchProfile::degree_skew >= fit_skew_threshold`, or running
  /// balanced kernels wants a host engine.
  double fit_tiny_work = 4096.0;
  double fit_huge_work = 1e7;
  double fit_skew_threshold = 4.5;
};

/// The shape of one dispatch, for routing policies that look past the
/// fingerprint (`kBackendFit`).  Built by the dispatcher from what it
/// already knows: the admitted instance's size and degree skew, and the
/// solver's capabilities.
struct DispatchProfile {
  std::uint64_t fingerprint = 0;
  double estimated_work = 0.0;  ///< load-gauge charge (clamped to >= 1)
  std::int64_t edges = 0;       ///< instance edge count
  double degree_skew = 0.0;     ///< PipelineInstance::degree_skew
  bool balanced_kernels = false;  ///< solver runs edge-balanced launches
};

/// One engine's dispatch counters, next to its device odometer.
struct EngineGroupEngineStats {
  unsigned index = 0;
  bool retired = false;
  std::uint64_t dispatches = 0;     ///< leases handed out, lifetime
  double work_dispatched = 0.0;     ///< cumulative estimated work routed
  double load = 0.0;                ///< snapshot: in-flight estimated work
  device::EngineStats device;       ///< the engine's lifetime aggregates
  device::EngineDescriptor descriptor;  ///< what the engine is (backend,
                                        ///< lanes/workers)
};

/// A pool of N `device::Engine`s behind one dispatch point: `acquire`
/// routes a unit of work (an instance fingerprint plus a modeled-work
/// estimate) to an engine under the configured `Routing` policy and
/// returns an RAII `Lease` that charges the engine's load gauge for its
/// lifetime.  This is the seam that turns "the service owns one engine"
/// into "the service schedules over a fleet" — a CUDA backend slots in as
/// another engine here without the service noticing.
///
/// Engines can be `retire`d (failure, maintenance): a retired engine gets
/// no new dispatches and loses its affinity mappings, but outstanding
/// leases stay valid — a lease holds the engine `shared_ptr`, so streams
/// on it keep running even if the whole group is destroyed first.
///
/// Thread safety: all members are safe to call concurrently.
class EngineGroup {
 public:
  explicit EngineGroup(EngineGroupOptions options = {});

  EngineGroup(const EngineGroup&) = delete;
  EngineGroup& operator=(const EngineGroup&) = delete;

  /// The engine a dispatch was routed to, with its load charge held until
  /// release/destruction.  Movable, not copyable; default-constructed is
  /// empty (`operator bool` false).
  class Lease {
   public:
    Lease() = default;
    Lease(Lease&& other) noexcept
        : engine_(std::move(other.engine_)),
          index_(other.index_),
          work_(other.work_) {
      other.engine_.reset();
    }
    Lease& operator=(Lease&& other) noexcept {
      if (this != &other) {
        release();
        engine_ = std::move(other.engine_);
        index_ = other.index_;
        work_ = other.work_;
        other.engine_.reset();
      }
      return *this;
    }
    ~Lease() { release(); }

    /// Removes the load charge; the lease is empty afterwards.
    void release() {
      if (engine_) engine_->remove_load(work_);
      engine_.reset();
    }

    [[nodiscard]] const std::shared_ptr<device::Engine>& engine() const {
      return engine_;
    }
    [[nodiscard]] unsigned index() const { return index_; }
    [[nodiscard]] double work() const { return work_; }
    [[nodiscard]] explicit operator bool() const { return engine_ != nullptr; }

   private:
    friend class EngineGroup;
    Lease(std::shared_ptr<device::Engine> engine, unsigned index, double work)
        : engine_(std::move(engine)), index_(index), work_(work) {}

    std::shared_ptr<device::Engine> engine_;
    unsigned index_ = 0;
    double work_ = 0.0;
  };

  /// Routes one dispatch: picks an engine for the profile under the
  /// routing policy, charges `estimated_work` (clamped to at least 1) to
  /// its load gauge, and returns the lease.  Never fails: with every
  /// engine retired, the pick falls back over the retired pool — a
  /// draining service must still make progress.
  [[nodiscard]] Lease acquire(const DispatchProfile& profile);

  /// Fingerprint-and-work shorthand for policies that need nothing more
  /// (everything but `kBackendFit`, which sees an all-default shape).
  [[nodiscard]] Lease acquire(std::uint64_t fingerprint,
                              double estimated_work);

  [[nodiscard]] unsigned size() const {
    return static_cast<unsigned>(engines_.size());
  }
  [[nodiscard]] const std::shared_ptr<device::Engine>& engine(
      unsigned index) const {
    return engines_.at(index);
  }
  [[nodiscard]] Routing routing() const { return options_.routing; }

  /// Stops routing new dispatches to `index` and evicts its affinity
  /// mappings; outstanding leases are unaffected.  Idempotent.
  void retire(unsigned index);
  [[nodiscard]] bool retired(unsigned index) const;

  /// Per-engine dispatch counters + device odometers, in index order.
  [[nodiscard]] std::vector<EngineGroupEngineStats> stats() const;

 private:
  [[nodiscard]] unsigned pick_locked(const DispatchProfile& profile);
  [[nodiscard]] unsigned least_loaded_locked() const;
  [[nodiscard]] unsigned backend_fit_locked(
      const DispatchProfile& profile) const;

  EngineGroupOptions options_;
  std::vector<std::shared_ptr<device::Engine>> engines_;

  mutable std::mutex mutex_;
  std::vector<bool> retired_;
  std::vector<std::uint64_t> dispatches_;
  std::vector<double> work_dispatched_;
  unsigned round_robin_next_ = 0;
  /// Affinity LRU: most recently dispatched at the front.
  std::list<std::pair<std::uint64_t, unsigned>> affinity_lru_;
  std::unordered_map<std::uint64_t,
                     std::list<std::pair<std::uint64_t, unsigned>>::iterator>
      affinity_;
};

}  // namespace bpm::serve
