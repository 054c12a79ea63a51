#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdio>

namespace bpm::obs {

namespace {

std::string quoted(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
  return out;
}

std::string number_json(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  counts_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) counts_[i].store(0);
}

void Histogram::observe(double v) noexcept {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const auto bucket = static_cast<std::size_t>(it - bounds_.begin());
  counts_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot snap;
  snap.bounds = bounds_;
  snap.counts.resize(bounds_.size() + 1);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    snap.counts[i] = counts_[i].load(std::memory_order_relaxed);
    total += snap.counts[i];
  }
  // Re-derive the total from the buckets rather than `count_`: under
  // concurrent observes the two can momentarily disagree, and the
  // percentile walk below must agree with its own cumulative sums.
  snap.count = total;
  snap.sum = sum_.load(std::memory_order_relaxed);
  return snap;
}

double Histogram::Snapshot::percentile(double pct) const {
  if (count == 0) return 0.0;
  pct = std::clamp(pct, 0.0, 100.0);
  const double target = pct / 100.0 * static_cast<double>(count);
  std::uint64_t cum = 0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    const std::uint64_t in_bucket = counts[b];
    if (in_bucket == 0) continue;
    if (static_cast<double>(cum + in_bucket) >= target) {
      // Overflow bucket: no upper bound to interpolate toward.
      if (b >= bounds.size()) return bounds.empty() ? 0.0 : bounds.back();
      const double hi = bounds[b];
      const double lo = b == 0 ? 0.0 : bounds[b - 1];
      const double within =
          std::clamp((target - static_cast<double>(cum)) /
                         static_cast<double>(in_bucket),
                     0.0, 1.0);
      return lo + (hi - lo) * within;
    }
    cum += in_bucket;
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

std::vector<double> Histogram::exponential_bounds(double start, double factor,
                                                  std::size_t count) {
  std::vector<double> bounds;
  bounds.reserve(count);
  double v = start;
  for (std::size_t i = 0; i < count; ++i) {
    bounds.push_back(v);
    v *= factor;
  }
  return bounds;
}

std::vector<double> Histogram::default_latency_bounds_ms() {
  return exponential_bounds(0.05, 2.0, 21);  // 0.05 ms .. ~52.4 s
}

Counter& Registry::counter(const std::string& name) {
  std::lock_guard lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  std::lock_guard lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::histogram(const std::string& name,
                               std::vector<double> bounds) {
  std::lock_guard lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) {
    if (bounds.empty()) bounds = Histogram::default_latency_bounds_ms();
    slot = std::make_unique<Histogram>(std::move(bounds));
  }
  return *slot;
}

void Registry::set_info(const std::string& name, std::string value) {
  std::lock_guard lock(mutex_);
  info_[name] = std::move(value);
}

std::map<std::string, std::uint64_t> Registry::counter_values() const {
  std::lock_guard lock(mutex_);
  std::map<std::string, std::uint64_t> values;
  for (const auto& [name, c] : counters_) values[name] = c->value();
  return values;
}

std::map<std::string, double> Registry::gauge_values() const {
  std::lock_guard lock(mutex_);
  std::map<std::string, double> values;
  for (const auto& [name, g] : gauges_) values[name] = g->value();
  return values;
}

std::vector<Registry::HistogramEntry> Registry::histogram_snapshots() const {
  std::lock_guard lock(mutex_);
  std::vector<HistogramEntry> entries;
  entries.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_)
    entries.push_back({name, h->snapshot()});
  return entries;
}

std::map<std::string, std::string> Registry::info_values() const {
  std::lock_guard lock(mutex_);
  return info_;
}

std::string Registry::snapshot_json() const {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counter_values()) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    " + quoted(name) + ": " + std::to_string(value);
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : gauge_values()) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    " + quoted(name) + ": " + number_json(value);
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, snap] : histogram_snapshots()) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    " + quoted(name) + ": {\"count\": " +
           std::to_string(snap.count) + ", \"sum\": " + number_json(snap.sum) +
           ", \"mean\": " + number_json(snap.mean()) +
           ", \"p50\": " + number_json(snap.percentile(50)) +
           ", \"p90\": " + number_json(snap.percentile(90)) +
           ", \"p99\": " + number_json(snap.percentile(99)) + ", \"buckets\": [";
    for (std::size_t b = 0; b < snap.counts.size(); ++b) {
      if (b > 0) out += ", ";
      out += "{\"le\": ";
      out += b < snap.bounds.size() ? number_json(snap.bounds[b]) : "\"inf\"";
      out += ", \"count\": " + std::to_string(snap.counts[b]) + '}';
    }
    out += "]}";
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"info\": {";
  first = true;
  for (const auto& [name, value] : info_values()) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    " + quoted(name) + ": " + quoted(value);
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

}  // namespace bpm::obs
