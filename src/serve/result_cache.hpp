#pragma once

#include <cstdint>
#include <iosfwd>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "core/solver.hpp"

namespace bpm::serve {

struct CacheOptions {
  /// Upper bound on the total estimated bytes of cached entries.
  /// Inserting always succeeds — least-recently-used entries are evicted
  /// until the cache fits again (a single oversized entry is kept alone).
  std::size_t byte_budget = std::size_t{64} << 20;
};

/// Lifetime counters of a cache.  `hits`/`misses` count `get` calls,
/// `insertions`/`evictions` count entries entering and leaving;
/// `entries`/`bytes` are the current footprint.
struct CacheStats {
  std::size_t entries = 0;
  std::size_t bytes = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
};

/// Process-lifetime result cache of `serve::MatchingService`: a
/// byte-budgeted LRU keyed by (instance fingerprint, canonical solver
/// spec) storing the verified `JobOutcome` of the run.  Only results that
/// passed certificate verification are published, so every entry — and
/// every snapshot — is trustworthy to any consumer.  A snapshot saved to
/// disk warms a restarted service from where the previous one left off.
///
/// Thread safety: all members are safe to call concurrently; one mutex
/// guards the whole cache (a service's few workers make one `get` per
/// dispatch and one `put` per solve).
///
/// ```
/// auto cache = std::make_shared<serve::ResultCache>(
///     serve::CacheOptions{.byte_budget = 32 << 20});
/// serve::MatchingService svc({.cache = cache});  // requests now share
/// cache->save_file("bpm.cache");                 // ...and persist
/// ```
class ResultCache {
 public:
  explicit ResultCache(CacheOptions options = {});

  /// Looks up (fingerprint, solver) and refreshes its recency.  Counts a
  /// hit or a miss.
  [[nodiscard]] std::optional<JobOutcome> get(std::uint64_t fingerprint,
                                              std::string_view solver);

  /// Inserts or overwrites the entry, making it most-recently used, then
  /// evicts LRU entries until the cache fits its byte budget again.
  void put(std::uint64_t fingerprint, std::string_view solver,
           const JobOutcome& outcome);

  [[nodiscard]] CacheStats stats() const;
  [[nodiscard]] std::size_t byte_budget() const { return options_.byte_budget; }

  /// Drops every entry (counters for hits/misses/... are kept).
  void clear();

  /// Writes every entry as a versioned, self-delimiting snapshot.  Entries
  /// are emitted least-recently-used first, so loading a snapshot into an
  /// empty cache with the same options reproduces both the contents and
  /// the eviction order — save → load → save is byte-identical.
  void save(std::ostream& os) const;
  /// `save` to a file; returns false (and leaves no partial file behind
  /// the caller cares about) if the file cannot be written.
  bool save_file(const std::string& path) const;

  /// Merges a snapshot into this cache via `put` (budget enforced as
  /// usual).  Returns the number of entries read.  Throws
  /// `std::runtime_error` on a malformed, truncated or version-mismatched
  /// snapshot; memory grows only with the bytes the stream really holds,
  /// whatever lengths a record declares.
  std::size_t load(std::istream& is);
  /// `load` from a file; returns 0 if the file does not exist or cannot be
  /// read (a cold start is not an error for a warming service).
  std::size_t load_file(const std::string& path);

 private:
  struct Entry {
    std::uint64_t fingerprint = 0;
    std::string solver;
    JobOutcome outcome;
    std::size_t bytes = 0;
  };

  /// Transparent hashing so the hot-path `get`/`put` look up by
  /// string_view without materialising a std::string under the lock.
  struct StringHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  using SolverIndex =
      std::unordered_map<std::string, std::list<Entry>::iterator, StringHash,
                         std::equal_to<>>;

  [[nodiscard]] static std::size_t entry_bytes(std::string_view solver,
                                               const JobOutcome& outcome);

  CacheOptions options_;
  mutable std::mutex mutex_;
  std::list<Entry> lru_;  ///< front = most recently used
  std::unordered_map<std::uint64_t, SolverIndex>
      index_;  ///< fingerprint -> solver -> LRU position
  CacheStats stats_;  ///< `entries` is `lru_.size()`, filled in by `stats`
};

}  // namespace bpm::serve
