#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

namespace bpm::obs {

/// One trace event in the chrome://tracing JSON model.  `ph` is the event
/// phase: 'X' = complete (has `dur_us`), 'i' = instant marker.  `args` is
/// the pre-rendered body of the JSON `args` object (`"key":value` pairs
/// joined by commas, no braces) so the hot path never builds a DOM.
struct TraceEvent {
  std::string name;
  std::string cat;
  char ph = 'X';
  std::uint64_t ts_us = 0;   ///< start, µs since the tracer's epoch
  std::uint64_t dur_us = 0;  ///< complete events only
  std::uint32_t tid = 0;     ///< timeline row (thread or caller-chosen id)
  std::string args;
};

/// Render helpers for `TraceEvent::args` / `Span::arg`.  Strings are
/// escaped and quoted; numbers print in a fixed locale-independent form.
[[nodiscard]] std::string arg_json(std::string_view key, std::string_view value);
[[nodiscard]] std::string arg_json(std::string_view key, std::int64_t value);
[[nodiscard]] std::string arg_json(std::string_view key, double value);

/// Thread-safe trace collector emitting chrome://tracing-format JSON
/// (load the file at chrome://tracing or https://ui.perfetto.dev).
///
/// Each recording thread appends into its own bounded ring (registered on
/// first use), so concurrent spans from the service workers and the device
/// pool never contend on one buffer; a full ring drops the newest events
/// and counts the drops instead of blocking the solve.  Rows (`tid`)
/// default to a per-thread id handed out in registration order (starting
/// at `kThreadTidBase`); callers that own a logical timeline may pass an
/// explicit tid below that base instead.
///
/// The disabled path is the whole design: `obs::span(tracer, ...)` is one
/// null/flag check when tracing is off (or the tracer absent), so the
/// instrumentation can stay compiled into every hot loop.
class Tracer {
 public:
  static constexpr std::uint32_t kThreadTidBase = 100;

  explicit Tracer(std::size_t per_thread_capacity = 1u << 15);
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void enable() { enabled_.store(true, std::memory_order_release); }
  void disable() { enabled_.store(false, std::memory_order_release); }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_acquire);
  }

  /// Microseconds since this tracer's construction (steady clock).
  [[nodiscard]] std::uint64_t now_us() const;

  /// The calling thread's default timeline row, registering it if new.
  [[nodiscard]] std::uint32_t thread_tid();

  /// Appends `ev` to the calling thread's ring (drops when full; no-op
  /// when disabled).  `ev.tid == kSelfTid` resolves to `thread_tid()`.
  static constexpr std::uint32_t kSelfTid = 0xffffffffu;
  void record(TraceEvent ev);

  /// Instant marker (ph='i') at `now_us()`.
  void instant(std::string name, std::string cat, std::string args = {},
               std::uint32_t tid = kSelfTid);

  /// Complete event with explicit timestamps — for spans reconstructed
  /// after the fact (the service emits a ticket's queue/service spans at
  /// completion time from its measured latencies).
  void complete(std::string name, std::string cat, std::uint64_t ts_us,
                std::uint64_t dur_us, std::string args = {},
                std::uint32_t tid = kSelfTid);

  /// All recorded events merged across rings, sorted by (ts, tid, -dur,
  /// name) — a deterministic order in which an enclosing span precedes
  /// the spans it contains.
  [[nodiscard]] std::vector<TraceEvent> events() const;

  /// Events dropped ring-full across all threads.
  [[nodiscard]] std::uint64_t dropped() const;

  /// Summed `dur_us` (as ms) per event name over complete events whose
  /// category is `cat` — cumulative, so per-run breakdowns diff two calls.
  [[nodiscard]] std::map<std::string, double> totals_ms(
      std::string_view cat) const;

  /// The chrome://tracing JSON document (deterministic for a fixed event
  /// set: sorted events, sorted row names, fixed number formatting).
  [[nodiscard]] std::string json() const;

  /// Writes `json()` to `path`; false on I/O failure.
  bool write_file(const std::string& path) const;

  /// Discards all recorded events and drop counts (rings stay registered).
  void clear();

 private:
  struct Ring {
    mutable std::mutex mutex;
    std::vector<TraceEvent> events;
    std::uint64_t dropped = 0;
    std::uint32_t tid = 0;
  };

  Ring& local_ring();

  const std::uint64_t id_;  ///< process-unique, keys the thread-local cache
  const std::size_t capacity_;
  std::atomic<bool> enabled_{false};
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mutex_;  ///< guards rings_/thread_index_
  std::vector<std::unique_ptr<Ring>> rings_;
  std::map<std::thread::id, Ring*> thread_index_;
};

/// RAII span: records one complete event from construction to `end()` (or
/// destruction).  A default-constructed or disabled span is inert — the
/// null check is the entire disabled-path cost.  Move-only so a span can
/// be returned from the `obs::span` helper and closed early.
class Span {
 public:
  Span() = default;
  Span(Tracer* tracer, std::string name, std::string cat,
       std::uint32_t tid = Tracer::kSelfTid)
      : tracer_(tracer), name_(std::move(name)), cat_(std::move(cat)),
        tid_(tid), start_us_(tracer ? tracer->now_us() : 0) {}

  Span(Span&& other) noexcept { *this = std::move(other); }
  Span& operator=(Span&& other) noexcept {
    if (this != &other) {
      end();
      tracer_ = other.tracer_;
      name_ = std::move(other.name_);
      cat_ = std::move(other.cat_);
      args_ = std::move(other.args_);
      tid_ = other.tid_;
      start_us_ = other.start_us_;
      other.tracer_ = nullptr;
    }
    return *this;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  ~Span() { end(); }

  [[nodiscard]] bool active() const { return tracer_ != nullptr; }
  explicit operator bool() const { return active(); }

  /// Attaches one `"key":value` pair to the event's args.  Integral
  /// values (including bool) render as integers, floating as numbers,
  /// anything string-convertible as an escaped JSON string.
  template <typename V>
  void arg(std::string_view key, const V& value) {
    if (!tracer_) return;
    if (!args_.empty()) args_ += ',';
    if constexpr (std::is_integral_v<V>)
      args_ += arg_json(key, static_cast<std::int64_t>(value));
    else if constexpr (std::is_floating_point_v<V>)
      args_ += arg_json(key, static_cast<double>(value));
    else
      args_ += arg_json(key, std::string_view(value));
  }

  void end() {
    if (!tracer_) return;
    const std::uint64_t now = tracer_->now_us();
    tracer_->complete(std::move(name_), std::move(cat_), start_us_,
                      now - start_us_, std::move(args_), tid_);
    tracer_ = nullptr;
  }

 private:
  Tracer* tracer_ = nullptr;
  std::string name_;
  std::string cat_;
  std::string args_;
  std::uint32_t tid_ = Tracer::kSelfTid;
  std::uint64_t start_us_ = 0;
};

/// The instrumentation entry point: an active span when `tracer` is
/// non-null and enabled, an inert one otherwise.
inline Span span(Tracer* tracer, std::string_view name, std::string_view cat,
                 std::uint32_t tid = Tracer::kSelfTid) {
  if (tracer == nullptr || !tracer->enabled()) return {};
  return Span(tracer, std::string(name), std::string(cat), tid);
}

}  // namespace bpm::obs
