#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace bpm::obs {

/// Monotonic counter: one relaxed atomic.  Its writers are per-request
/// service paths, not per-launch ones, so a single cell is cheap enough.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  void inc() noexcept { add(1); }

  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value (queue depth, in-flight count).
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram: `bounds` are the sorted inclusive upper bounds
/// of the first `bounds.size()` buckets, with an implicit +inf overflow
/// bucket at the end.  `observe` is two relaxed atomic adds plus a binary
/// search over an immutable bounds array — safe and cheap from any number
/// of threads concurrently.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double v) noexcept;

  /// A point-in-time copy.  `counts.size() == bounds.size() + 1` (the
  /// last entry is the overflow bucket).
  struct Snapshot {
    std::vector<double> bounds;
    std::vector<std::uint64_t> counts;
    std::uint64_t count = 0;
    double sum = 0.0;

    /// Percentile estimate by linear interpolation inside the bucket the
    /// rank falls in (the overflow bucket reports its lower bound — the
    /// histogram cannot see past its last boundary).  0 when empty, and
    /// `pct` is clamped to [0, 100].
    [[nodiscard]] double percentile(double pct) const;
    [[nodiscard]] double mean() const {
      return count == 0 ? 0.0 : sum / static_cast<double>(count);
    }
  };

  [[nodiscard]] Snapshot snapshot() const;
  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }

  /// `count` upper bounds growing geometrically from `start` by `factor`
  /// — the usual latency-bucket ladder.
  [[nodiscard]] static std::vector<double> exponential_bounds(
      double start, double factor, std::size_t count);
  /// 0.05 ms … ~52 s in ×2 steps: covers a cache hit through a massive
  /// solve.
  [[nodiscard]] static std::vector<double> default_latency_bounds_ms();

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> counts_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Metrics registry: named counters, gauges, histograms, and static info
/// strings.  There is no process-wide one: each owner (a serving
/// instance) keeps its own, so its counts stay its own.  Registration
/// (`counter()` et al.) takes a mutex and returns a stable reference —
/// hot paths register once and hold the reference, so their updates never
/// touch the registry lock.  Metric objects live as long as the registry.
///
/// `snapshot_json()` is deterministic for a fixed set of values: names
/// are emitted in sorted order (std::map) with fixed number formatting,
/// so two snapshots of equal state are byte-identical.
class Registry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// Registers (or fetches) a histogram; `bounds` is used only on first
  /// registration (empty = `default_latency_bounds_ms`).
  Histogram& histogram(const std::string& name,
                       std::vector<double> bounds = {});
  /// Static string facts (engine descriptor summaries).
  void set_info(const std::string& name, std::string value);

  struct HistogramEntry {
    std::string name;
    Histogram::Snapshot snapshot;
  };

  [[nodiscard]] std::map<std::string, std::uint64_t> counter_values() const;
  [[nodiscard]] std::map<std::string, double> gauge_values() const;
  [[nodiscard]] std::vector<HistogramEntry> histogram_snapshots() const;
  [[nodiscard]] std::map<std::string, std::string> info_values() const;

  /// `{"counters":{...},"gauges":{...},"histograms":{...},"info":{...}}`
  /// with sorted keys; histograms embed count/sum/mean, p50/p90/p99, and
  /// the per-bucket `{"le":bound,"count":n}` ladder.
  [[nodiscard]] std::string snapshot_json() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::string> info_;
};

}  // namespace bpm::obs
