#include "serve/result_cache.hpp"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace bpm::serve {
namespace {

constexpr std::string_view kMagic = "bpm-result-cache";
constexpr int kVersion = 1;

/// Fixed per-entry overhead charged on top of the variable-length strings:
/// the Entry node, the index buckets, and the list bookkeeping.  An
/// estimate — the budget bounds footprint, it does not meter the allocator.
constexpr std::size_t kEntryOverhead = 128;

/// Snapshot payloads are read in chunks of this size, so a record that
/// declares more bytes than the stream holds fails after at most one
/// chunk past the real data instead of allocating its declared length.
constexpr std::size_t kReadChunk = std::size_t{64} << 10;

/// Reads exactly `len` bytes of `is` into `out`; false if the stream ends
/// first.
bool read_exactly(std::istream& is, std::size_t len, std::string& out) {
  out.clear();
  while (out.size() < len) {
    const std::size_t at = out.size();
    const std::size_t step = std::min(len - at, kReadChunk);
    out.resize(at + step);
    if (!is.read(out.data() + at, static_cast<std::streamsize>(step)))
      return false;
  }
  return true;
}

}  // namespace

ResultCache::ResultCache(CacheOptions options) : options_(options) {}

std::size_t ResultCache::entry_bytes(std::string_view solver,
                                     const JobOutcome& outcome) {
  return kEntryOverhead + solver.size() + outcome.stats.detail.size() +
         outcome.error.size();
}

std::optional<JobOutcome> ResultCache::get(std::uint64_t fingerprint,
                                           std::string_view solver) {
  const std::scoped_lock lock(mutex_);
  const auto by_fp = index_.find(fingerprint);
  if (by_fp != index_.end()) {
    const auto it = by_fp->second.find(solver);
    if (it != by_fp->second.end()) {
      ++stats_.hits;
      lru_.splice(lru_.begin(), lru_, it->second);
      return it->second->outcome;
    }
  }
  ++stats_.misses;
  return std::nullopt;
}

void ResultCache::put(std::uint64_t fingerprint, std::string_view solver,
                      const JobOutcome& outcome) {
  const std::size_t bytes = entry_bytes(solver, outcome);
  const std::scoped_lock lock(mutex_);
  auto& by_solver = index_[fingerprint];
  if (const auto it = by_solver.find(solver); it != by_solver.end()) {
    // Overwrite in place and refresh recency.
    stats_.bytes -= it->second->bytes;
    it->second->outcome = outcome;
    it->second->bytes = bytes;
    stats_.bytes += bytes;
    lru_.splice(lru_.begin(), lru_, it->second);
  } else {
    lru_.push_front(Entry{fingerprint, std::string(solver), outcome, bytes});
    by_solver.emplace(std::string(solver), lru_.begin());
    stats_.bytes += bytes;
    ++stats_.insertions;
  }
  // Evict least-recently-used entries until the cache fits its budget;
  // the entry just touched is at the front and always kept, so a single
  // oversized result still caches (alone).
  while (stats_.bytes > options_.byte_budget && lru_.size() > 1) {
    const Entry& victim = lru_.back();
    auto vfp = index_.find(victim.fingerprint);
    vfp->second.erase(victim.solver);
    if (vfp->second.empty()) index_.erase(vfp);
    stats_.bytes -= victim.bytes;
    lru_.pop_back();
    ++stats_.evictions;
  }
}

CacheStats ResultCache::stats() const {
  const std::scoped_lock lock(mutex_);
  CacheStats out = stats_;
  out.entries = lru_.size();
  return out;
}

void ResultCache::clear() {
  const std::scoped_lock lock(mutex_);
  lru_.clear();
  index_.clear();
  stats_.bytes = 0;
}

void ResultCache::save(std::ostream& os) const {
  std::size_t entries = 0;
  std::ostringstream records;
  records << std::setprecision(17);  // doubles round-trip exactly
  {
    const std::scoped_lock lock(mutex_);
    entries = lru_.size();
    // LRU-first, so replaying the records through `put` reproduces the
    // recency order (the last record re-put becomes the MRU).
    for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
      const JobOutcome& o = it->outcome;
      records << it->fingerprint << ' ' << (o.ok ? 1 : 0) << ' '
              << o.stats.cardinality << ' ' << o.stats.wall_ms << ' '
              << o.stats.modeled_ms << ' ' << o.stats.device_launches << ' '
              << o.stats.iterations << ' ' << it->solver.size() << ' '
              << o.stats.detail.size() << ' ' << o.error.size() << '\n'
              << it->solver << o.stats.detail << o.error << '\n';
    }
  }
  os << kMagic << ' ' << kVersion << ' ' << entries << '\n' << records.str();
}

bool ResultCache::save_file(const std::string& path) const {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) return false;
  save(os);
  return static_cast<bool>(os);
}

std::size_t ResultCache::load(std::istream& is) {
  std::string magic;
  int version = -1;
  std::size_t entries = 0;
  if (!(is >> magic >> version >> entries) || magic != kMagic)
    throw std::runtime_error("not a bpm result-cache snapshot");
  if (version != kVersion)
    throw std::runtime_error("unsupported result-cache snapshot version " +
                             std::to_string(version));
  for (std::size_t n = 0; n < entries; ++n) {
    std::uint64_t fingerprint = 0;
    int ok = 0;
    std::size_t solver_len = 0, detail_len = 0, error_len = 0;
    JobOutcome o;
    if (!(is >> fingerprint >> ok >> o.stats.cardinality >> o.stats.wall_ms >>
          o.stats.modeled_ms >> o.stats.device_launches >>
          o.stats.iterations >> solver_len >> detail_len >> error_len))
      throw std::runtime_error("truncated result-cache snapshot (entry " +
                               std::to_string(n) + ")");
    o.ok = ok != 0;
    is.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
    // A sum that overflows cannot be held by any stream: truncated too.
    constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
    std::string payload;
    if (detail_len > kMax - solver_len ||
        error_len > kMax - solver_len - detail_len ||
        !read_exactly(is, solver_len + detail_len + error_len, payload) ||
        is.get() != '\n')
      throw std::runtime_error("truncated result-cache snapshot (entry " +
                               std::to_string(n) + ")");
    const std::string solver = payload.substr(0, solver_len);
    o.stats.detail = payload.substr(solver_len, detail_len);
    o.error = payload.substr(solver_len + detail_len, error_len);
    put(fingerprint, solver, o);
  }
  return entries;
}

std::size_t ResultCache::load_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return 0;
  return load(is);
}

}  // namespace bpm::serve
