#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <fstream>

namespace bpm::obs {

namespace {

std::uint64_t next_tracer_id() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

void append_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

std::string quoted(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  append_escaped(out, s);
  out += '"';
  return out;
}

std::string number_json(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

}  // namespace

std::string arg_json(std::string_view key, std::string_view value) {
  return quoted(key) + ':' + quoted(value);
}

std::string arg_json(std::string_view key, std::int64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%" PRId64, value);
  return quoted(key) + ':' + buf;
}

std::string arg_json(std::string_view key, double value) {
  return quoted(key) + ':' + number_json(value);
}

Tracer::Tracer(std::size_t per_thread_capacity)
    : id_(next_tracer_id()),
      capacity_(std::max<std::size_t>(per_thread_capacity, 16)),
      epoch_(std::chrono::steady_clock::now()) {}

Tracer::~Tracer() = default;

std::uint64_t Tracer::now_us() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

Tracer::Ring& Tracer::local_ring() {
  // One-entry cache: repeated records from the same thread skip the
  // registry lock entirely.  Keyed by the process-unique tracer id, not
  // the pointer, so a recycled allocation can never hit a stale entry.
  thread_local struct {
    std::uint64_t tracer_id = 0;
    Ring* ring = nullptr;
  } cache;
  if (cache.tracer_id == id_ && cache.ring != nullptr) return *cache.ring;
  std::lock_guard lock(mutex_);
  Ring*& slot = thread_index_[std::this_thread::get_id()];
  if (slot == nullptr) {
    auto ring = std::make_unique<Ring>();
    ring->tid = kThreadTidBase + static_cast<std::uint32_t>(rings_.size());
    ring->events.reserve(std::min<std::size_t>(capacity_, 1024));
    slot = ring.get();
    rings_.push_back(std::move(ring));
  }
  cache.tracer_id = id_;
  cache.ring = slot;
  return *slot;
}

std::uint32_t Tracer::thread_tid() { return local_ring().tid; }

void Tracer::record(TraceEvent ev) {
  if (!enabled()) return;
  Ring& ring = local_ring();
  if (ev.tid == kSelfTid) ev.tid = ring.tid;
  std::lock_guard lock(ring.mutex);
  if (ring.events.size() >= capacity_) {
    ++ring.dropped;
    return;
  }
  ring.events.push_back(std::move(ev));
}

void Tracer::instant(std::string name, std::string cat, std::string args,
                     std::uint32_t tid) {
  if (!enabled()) return;
  record(TraceEvent{.name = std::move(name), .cat = std::move(cat), .ph = 'i',
                    .ts_us = now_us(), .dur_us = 0, .tid = tid,
                    .args = std::move(args)});
}

void Tracer::complete(std::string name, std::string cat, std::uint64_t ts_us,
                      std::uint64_t dur_us, std::string args,
                      std::uint32_t tid) {
  if (!enabled()) return;
  record(TraceEvent{.name = std::move(name), .cat = std::move(cat), .ph = 'X',
                    .ts_us = ts_us, .dur_us = dur_us, .tid = tid,
                    .args = std::move(args)});
}

std::vector<TraceEvent> Tracer::events() const {
  std::vector<TraceEvent> all;
  {
    std::lock_guard lock(mutex_);
    for (const auto& ring : rings_) {
      std::lock_guard ring_lock(ring->mutex);
      all.insert(all.end(), ring->events.begin(), ring->events.end());
    }
  }
  std::sort(all.begin(), all.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.dur_us != b.dur_us) return a.dur_us > b.dur_us;
              return a.name < b.name;
            });
  return all;
}

std::uint64_t Tracer::dropped() const {
  std::lock_guard lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& ring : rings_) {
    std::lock_guard ring_lock(ring->mutex);
    total += ring->dropped;
  }
  return total;
}

std::map<std::string, double> Tracer::totals_ms(std::string_view cat) const {
  std::map<std::string, double> totals;
  for (const TraceEvent& ev : events())
    if (ev.ph == 'X' && ev.cat == cat)
      totals[ev.name] += static_cast<double>(ev.dur_us) / 1e3;
  return totals;
}

std::string Tracer::json() const {
  const std::vector<TraceEvent> all = events();
  const std::uint64_t drops = dropped();
  std::string out;
  out.reserve(128 + all.size() * 96);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  const auto emit = [&](const std::string& line) {
    if (!first) out += ",\n";
    first = false;
    out += line;
  };
  emit("{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
       "\"args\":{\"name\":\"bpm\"}}");
  for (const TraceEvent& ev : all) {
    std::string line = "{\"name\":";
    line += quoted(ev.name);
    line += ",\"cat\":";
    line += quoted(ev.cat.empty() ? std::string_view("bpm")
                                  : std::string_view(ev.cat));
    line += ",\"ph\":\"";
    line += ev.ph;
    line += "\",\"pid\":1,\"tid\":";
    line += std::to_string(ev.tid);
    line += ",\"ts\":";
    line += std::to_string(ev.ts_us);
    if (ev.ph == 'X') {
      line += ",\"dur\":";
      line += std::to_string(ev.dur_us);
    }
    if (ev.ph == 'i') line += ",\"s\":\"t\"";
    if (!ev.args.empty()) {
      line += ",\"args\":{";
      line += ev.args;
      line += '}';
    }
    line += '}';
    emit(line);
  }
  if (drops > 0) {
    std::string line =
        "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"trace_dropped_events\","
        "\"args\":{\"count\":";
    line += std::to_string(drops);
    line += "}}";
    emit(line);
  }
  out += "\n]}\n";
  return out;
}

bool Tracer::write_file(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << json();
  return static_cast<bool>(out);
}

void Tracer::clear() {
  std::lock_guard lock(mutex_);
  for (const auto& ring : rings_) {
    std::lock_guard ring_lock(ring->mutex);
    ring->events.clear();
    ring->dropped = 0;
  }
}

}  // namespace bpm::obs
