#pragma once

#include <cstdint>
#include <deque>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/pipeline.hpp"
#include "graph/bipartite_graph.hpp"

namespace bpm::serve {

/// Footprint and lifetime counters of an `InstanceStore`.  `instances` and
/// `bytes` are the live entries; `evicted` counts every instance the LRU
/// has dropped.
struct StoreStats {
  std::size_t instances = 0;
  std::size_t bytes = 0;
  std::size_t byte_budget = 0;
  std::uint64_t evicted = 0;
};

/// Registry of the graphs a serving process holds: admits each graph once
/// (shared init + features + fingerprint, built by `admit_instance` with
/// its default options, the Karp–Sipser init), dedups registrations
/// by structural fingerprint, and hands out integer handles that requests
/// refer to.
///
/// Dedup means a client re-registering a graph the store holds — under any
/// name — gets the original handle back and costs nothing beyond the
/// fingerprint and the name; the first registration's name is the primary
/// one, later names become aliases that `find` resolves.
///
/// Memory is bounded by a byte budget with least-recently-used eviction,
/// the rule `ResultCache` follows: after each add, the least recently
/// added or pinned instances are dropped until the store fits again.  An
/// instance someone holds a `pin` on is never evicted, and neither is the
/// one just added, so a single instance larger than the whole budget is
/// still admitted (evicting every unpinned instance).  Names cost bytes
/// too: if the instance just added is still over budget on its own, its
/// oldest names are forgotten until it fits or one is left.  Handles count
/// up and are never reused: a handle below the next one that the store no
/// longer holds was evicted.  Loading an evicted graph again admits it
/// under a new handle.
///
/// Thread safety: all members are safe to call concurrently.
class InstanceStore {
 public:
  /// The default budget, `ResultCache`'s default too.
  static constexpr std::size_t kDefaultBytes = std::size_t{64} << 20;

  /// Evicts beyond `byte_budget` bytes of instances and names.
  explicit InstanceStore(std::size_t byte_budget = kDefaultBytes)
      : byte_budget_(byte_budget) {}

  /// Admits (or dedups) a graph; returns its handle, whether this call
  /// actually admitted it, how many instances the add evicted, and a pin
  /// on the instance taken under the same lock, so it cannot be evicted
  /// before the caller is done with it.  Re-using a name re-points it at
  /// the newly registered graph.
  struct AddResult {
    std::size_t handle = 0;
    bool deduplicated = false;  ///< an identical graph was already held
    std::size_t evicted = 0;    ///< instances this add evicted
    std::shared_ptr<const PipelineInstance> instance;  ///< see `pin`
  };
  AddResult add(std::string name, graph::BipartiteGraph graph);

  /// Admits an already-built instance (e.g. a harness's precomputed suite)
  /// without redoing the feature work.  Its init is proven again against
  /// its graph (`matching::ValidMatching`): an init of another graph throws
  /// `std::invalid_argument` and nothing is stored.  Its fingerprint is
  /// recomputed from its graph, whatever it carries; dedup applies as usual.
  /// It is stored unproven (`PipelineInstance::proven_maximum`), whatever
  /// the caller's instance had proven.
  AddResult add(PipelineInstance instance);

  /// The admitted instance behind a handle, valid until it is evicted.
  /// Throws
  /// `std::out_of_range` for an evicted or never-issued handle.  A caller
  /// that must outlive an eviction takes a `pin` instead.
  [[nodiscard]] const PipelineInstance& get(std::size_t handle) const;

  /// Shares ownership of the instance, so the store cannot evict it while
  /// the pointer lives, and marks it used for the LRU.  Null once the
  /// instance is evicted (or for a never-issued handle).
  [[nodiscard]] std::shared_ptr<const PipelineInstance> pin(
      std::size_t handle);

  /// Resolves a registered name (including dedup aliases) to its handle.
  [[nodiscard]] std::optional<std::size_t> find(std::string_view name) const;

  /// Whether `handle` was issued and has since been evicted.
  [[nodiscard]] bool evicted(std::size_t handle) const;
  /// Whether `name` resolved to one of the last `kEvictedNames` evicted
  /// instances when it was evicted.
  [[nodiscard]] bool evicted_name(std::string_view name) const;

  /// Live instances.
  [[nodiscard]] std::size_t size() const;

  /// Primary names of the live instances, in handle order.
  [[nodiscard]] std::vector<std::string> names() const;

  [[nodiscard]] StoreStats stats() const;

  /// The bytes an instance is charged, once, when it is added: the
  /// capacities of its graph's CSR vectors and its init's two vectors,
  /// plus the instance struct and its name.  An estimate — the budget
  /// bounds footprint, it does not meter the allocator.  Each name that
  /// resolves to the instance, the primary one included, adds
  /// `name_bytes`.
  [[nodiscard]] static std::size_t instance_bytes(
      const PipelineInstance& instance);
  /// The bytes a name's index entry is charged.
  [[nodiscard]] static std::size_t name_bytes(std::string_view name) {
    return kNameEntryBytes + name.size();
  }

  /// How many evicted names `evicted_name` remembers.
  static constexpr std::size_t kEvictedNames = 4096;

 private:
  /// A name index node, its key and its iterator in an `Entry`.
  static constexpr std::size_t kNameEntryBytes = 96;

  using NameIndex = std::map<std::string, std::size_t, std::less<>>;
  using Dropped = std::vector<std::shared_ptr<const PipelineInstance>>;

  struct Entry {
    std::shared_ptr<const PipelineInstance> instance;
    std::size_t bytes = 0;  ///< instance_bytes + name_bytes of `names`
    std::list<std::size_t>::iterator lru;  ///< position in `lru_`
    std::vector<NameIndex::iterator> names;  ///< oldest first
  };

  /// Stores an instance whose init and fingerprint are its graph's.
  AddResult insert(PipelineInstance instance);
  /// Points `name` at `handle` (moving it off any other entry) and marks
  /// the entry used.  Caller holds `mutex_`.
  void bind_locked(std::string name, std::size_t handle);
  /// Remembers an index name as evicted and erases it.  Caller holds
  /// `mutex_`.
  void forget_name_locked(NameIndex::iterator name);
  /// Drops least-recently-used entries other than `keep` until the store
  /// fits its budget, skipping pinned ones, then `keep`'s oldest names
  /// while it alone is over; returns how many entries it dropped.  The
  /// dropped instances go to `dropped`, for the caller to free after
  /// releasing `mutex_`.  Caller holds `mutex_`.
  std::size_t evict_locked(std::size_t keep, Dropped& dropped);

  std::size_t byte_budget_;
  mutable std::mutex mutex_;
  std::map<std::size_t, Entry> entries_;  ///< live instances by handle
  std::list<std::size_t> lru_;            ///< handles, front = most recent
  std::map<std::uint64_t, std::size_t> by_fingerprint_;
  NameIndex by_name_;
  std::deque<std::string> evicted_names_;  ///< oldest first
  std::size_t next_handle_ = 0;
  std::size_t bytes_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace bpm::serve
