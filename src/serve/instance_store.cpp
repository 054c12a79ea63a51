#include "serve/instance_store.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace bpm::serve {
namespace {

template <typename T>
std::size_t capacity_bytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

}  // namespace

std::size_t InstanceStore::instance_bytes(const PipelineInstance& instance) {
  const graph::BipartiteGraph& g = instance.graph;
  return sizeof(PipelineInstance) + instance.name.capacity() +
         capacity_bytes(g.row_ptr()) + capacity_bytes(g.row_adj()) +
         capacity_bytes(g.col_ptr()) + capacity_bytes(g.col_adj()) +
         capacity_bytes(instance.init.get().row_match) +
         capacity_bytes(instance.init.get().col_match);
}

InstanceStore::AddResult InstanceStore::add(std::string name,
                                            graph::BipartiteGraph graph) {
  const std::uint64_t fingerprint = graph::structural_fingerprint(graph);
  {
    Dropped dropped;  // freed after the lock is released
    const std::scoped_lock lock(mutex_);
    if (const auto it = by_fingerprint_.find(fingerprint);
        it != by_fingerprint_.end()) {
      // Already held: the name now resolves to this handle (re-pointing
      // it if a previous registration used the same name).
      const std::size_t handle = it->second;
      bind_locked(std::move(name), handle);
      return {handle, /*deduplicated=*/true, evict_locked(handle, dropped),
              entries_.at(handle).instance};
    }
  }
  // Admission (init + features) is the expensive part — done
  // outside the lock so concurrent registrations of different graphs
  // overlap.  A racing duplicate is resolved on re-check: first in wins.
  PipelineInstance instance =
      admit_instance(std::move(name), std::move(graph), {});
  instance.fingerprint = fingerprint;
  return insert(std::move(instance));
}

InstanceStore::AddResult InstanceStore::add(PipelineInstance instance) {
  // Built elsewhere, its init and fingerprint may belong to another graph:
  // prove the init against this one (throws before anything is stored) and
  // recompute the fingerprint, so it cannot dedup onto another graph.
  instance.init = matching::ValidMatching(instance.graph, instance.init.get());
  instance.fingerprint = graph::structural_fingerprint(instance.graph);
  return insert(std::move(instance));
}

InstanceStore::AddResult InstanceStore::insert(PipelineInstance instance) {
  const std::size_t bytes = instance_bytes(instance);
  Dropped dropped;  // freed after the lock is released
  const std::scoped_lock lock(mutex_);
  std::size_t handle = 0;
  bool deduplicated = false;
  if (const auto it = by_fingerprint_.find(instance.fingerprint);
      it != by_fingerprint_.end()) {
    handle = it->second;
    deduplicated = true;
    bind_locked(std::move(instance.name), handle);
  } else {
    handle = next_handle_++;
    by_fingerprint_.emplace(instance.fingerprint, handle);
    lru_.push_front(handle);
    std::string name = instance.name;
    entries_.emplace(
        handle,
        Entry{std::make_shared<const PipelineInstance>(std::move(instance)),
              bytes, lru_.begin(), {}});
    bytes_ += bytes;
    bind_locked(std::move(name), handle);
  }
  return {handle, deduplicated, evict_locked(handle, dropped),
          entries_.at(handle).instance};
}

void InstanceStore::bind_locked(std::string name, std::size_t handle) {
  Entry& entry = entries_.at(handle);
  lru_.splice(lru_.begin(), lru_, entry.lru);
  auto [it, inserted] = by_name_.try_emplace(std::move(name), handle);
  if (!inserted) {
    if (it->second == handle) return;
    // The name moves off the entry it resolved to.
    Entry& old = entries_.at(it->second);
    std::erase(old.names, it);
    old.bytes -= name_bytes(it->first);
    bytes_ -= name_bytes(it->first);
    it->second = handle;
  }
  entry.names.push_back(it);
  entry.bytes += name_bytes(it->first);
  bytes_ += name_bytes(it->first);
}

void InstanceStore::forget_name_locked(NameIndex::iterator name) {
  evicted_names_.push_back(name->first);
  if (evicted_names_.size() > kEvictedNames) evicted_names_.pop_front();
  by_name_.erase(name);
}

std::size_t InstanceStore::evict_locked(std::size_t keep, Dropped& dropped) {
  std::size_t evicted = 0;
  // From the LRU tail forward; pinned entries (someone else shares the
  // pointer) and `keep` are stepped over, so the loop ends either within
  // budget or with only those left.
  for (auto it = lru_.end(); bytes_ > byte_budget_ && it != lru_.begin();) {
    --it;
    const auto entry = entries_.find(*it);
    if (*it == keep || entry->second.instance.use_count() > 1) continue;
    by_fingerprint_.erase(entry->second.instance->fingerprint);
    for (const NameIndex::iterator name : entry->second.names)
      forget_name_locked(name);
    bytes_ -= entry->second.bytes;
    dropped.push_back(std::move(entry->second.instance));
    entries_.erase(entry);
    it = lru_.erase(it);
    ++evicted;
  }
  evictions_ += evicted;
  // A graph registered under ever more names is bounded too: past the
  // budget on its own, it forgets its oldest names.
  Entry& kept = entries_.at(keep);
  while (kept.bytes > byte_budget_ && kept.names.size() > 1) {
    const std::size_t freed = name_bytes(kept.names.front()->first);
    forget_name_locked(kept.names.front());
    kept.names.erase(kept.names.begin());
    kept.bytes -= freed;
    bytes_ -= freed;
  }
  return evicted;
}

const PipelineInstance& InstanceStore::get(std::size_t handle) const {
  const std::scoped_lock lock(mutex_);
  const auto it = entries_.find(handle);
  if (it == entries_.end())
    throw std::out_of_range(
        (handle < next_handle_ ? "evicted instance handle "
                               : "unknown instance handle ") +
        std::to_string(handle) + " (store holds " +
        std::to_string(entries_.size()) + ")");
  return *it->second.instance;
}

std::shared_ptr<const PipelineInstance> InstanceStore::pin(
    std::size_t handle) {
  const std::scoped_lock lock(mutex_);
  const auto it = entries_.find(handle);
  if (it == entries_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second.lru);
  return it->second.instance;
}

std::optional<std::size_t> InstanceStore::find(std::string_view name) const {
  const std::scoped_lock lock(mutex_);
  const auto it = by_name_.find(name);
  if (it == by_name_.end()) return std::nullopt;
  return it->second;
}

bool InstanceStore::evicted(std::size_t handle) const {
  const std::scoped_lock lock(mutex_);
  return handle < next_handle_ && !entries_.contains(handle);
}

bool InstanceStore::evicted_name(std::string_view name) const {
  const std::scoped_lock lock(mutex_);
  return std::find(evicted_names_.begin(), evicted_names_.end(), name) !=
         evicted_names_.end();
}

std::size_t InstanceStore::size() const {
  const std::scoped_lock lock(mutex_);
  return entries_.size();
}

std::vector<std::string> InstanceStore::names() const {
  const std::scoped_lock lock(mutex_);
  std::vector<std::string> out;
  out.reserve(entries_.size());
  // The admitting registration's name is the primary one; aliases from
  // deduplicated adds live only in the name index.
  for (const auto& [handle, entry] : entries_)
    out.push_back(entry.instance->name);
  return out;
}

StoreStats InstanceStore::stats() const {
  const std::scoped_lock lock(mutex_);
  return {entries_.size(), bytes_, byte_budget_, evictions_};
}

}  // namespace bpm::serve
