#include "device/device.hpp"

#include <cstdlib>
#include <stdexcept>
#include <string>

namespace bpm::device {

Backend parse_backend(std::string_view name) {
  if (name == "sim") return Backend::kSim;
  if (name == "host") return Backend::kHost;
  throw std::invalid_argument("unknown backend '" + std::string(name) +
                              "' (choices: sim, host)");
}

std::string_view backend_name(Backend backend) {
  switch (backend) {
    case Backend::kSim:
      return "sim";
    case Backend::kHost:
      return "host";
  }
  return "?";
}

Backend default_backend() {
  static const Backend value = [] {
    const char* env = std::getenv("BPM_DEVICE_BACKEND");
    return env != nullptr && *env != '\0' ? parse_backend(env)
                                          : Backend::kSim;
  }();
  return value;
}

std::string EngineDescriptor::summary() const {
  std::string out(backend_name(backend));
  out += "(workers=";
  out += std::to_string(workers);
  if (mode == ExecMode::kSequential) out += ",seq";
  out += ')';
  return out;
}

std::vector<std::int64_t> balanced_partition(
    std::span<const std::int64_t> offsets, std::int64_t parts) {
  if (offsets.empty() || offsets.front() != 0)
    throw std::invalid_argument(
        "balanced_partition: offsets must be an exclusive prefix sum "
        "starting at 0 with the total appended");
  if (parts < 1)
    throw std::invalid_argument("balanced_partition: parts must be >= 1");
  const auto n = static_cast<std::int64_t>(offsets.size()) - 1;
  const std::int64_t total = offsets.back();
  std::vector<std::int64_t> bounds(static_cast<std::size_t>(parts) + 1, 0);
  bounds.back() = n;
  if (total == 0) {
    // No work at all: fall back to near-equal *item* chunks so callers that
    // partition by chunk still get every item spread out instead of one
    // chunk holding everything.
    for (std::int64_t p = 1; p < parts; ++p)
      bounds[static_cast<std::size_t>(p)] = n * p / parts;
    return bounds;
  }
  for (std::int64_t p = 1; p < parts; ++p) {
    // First item whose start offset reaches the ideal target — chunk p-1
    // overshoots the ideal by at most the work of its final item.  The
    // target is the *ceiling* of total*p/parts: a floor target rounds to 0
    // when total < parts and every leading chunk collapses onto item 0,
    // leaving the leading chunks empty while later ones hold all the work.
    const std::int64_t target = (total * p + parts - 1) / parts;
    const auto it = std::lower_bound(offsets.begin(), offsets.end(), target);
    bounds[static_cast<std::size_t>(p)] =
        std::min<std::int64_t>(it - offsets.begin(), n);
  }
  // Monotonicity is guaranteed by monotone targets over a monotone prefix
  // sum, but clamp against the tail so degenerate (all-zero) inputs keep
  // every boundary in range.
  for (std::size_t p = 1; p < bounds.size(); ++p)
    bounds[p] = std::max(bounds[p], bounds[p - 1]);
  return bounds;
}

Engine::Engine(ExecMode mode, unsigned num_threads)
    : Engine(EngineDescriptor{.backend = default_backend(),
                              .mode = mode,
                              .threads = num_threads}) {}

Engine::Engine(EngineDescriptor descriptor) : descriptor_(descriptor) {
  if (descriptor_.mode == ExecMode::kConcurrent)
    pool_ = std::make_unique<ThreadPool>(descriptor_.threads);
  descriptor_.workers = static_cast<int>(num_workers());
}

EngineStats Engine::stats() const {
  const std::scoped_lock lock(stats_mutex_);
  return stats_;
}

void Engine::note_stream_opened() {
  const std::scoped_lock lock(stats_mutex_);
  ++stats_.streams_opened;
}

void Engine::retire_stream(std::uint64_t launches, double modeled_us,
                           double native_us) {
  const std::scoped_lock lock(stats_mutex_);
  ++stats_.streams_retired;
  stats_.launches += launches;
  stats_.modeled_ms += modeled_us / 1e3;
  stats_.native_ms += native_us / 1e3;
}

}  // namespace bpm::device
