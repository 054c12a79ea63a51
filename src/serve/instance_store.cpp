#include "serve/instance_store.hpp"

#include <stdexcept>
#include <utility>

namespace bpm::serve {

InstanceStore::AddResult InstanceStore::add(std::string name,
                                            graph::BipartiteGraph graph) {
  const std::uint64_t fingerprint = graph::structural_fingerprint(graph);
  {
    const std::scoped_lock lock(mutex_);
    if (const auto it = by_fingerprint_.find(fingerprint);
        it != by_fingerprint_.end()) {
      // Already held: the name now resolves to this handle (re-pointing
      // it if a previous registration used the same name).
      by_name_.insert_or_assign(std::move(name), it->second);
      return {it->second, /*deduplicated=*/true};
    }
  }
  // Admission (init + features) is the expensive part — done
  // outside the lock so concurrent registrations of different graphs
  // overlap.  A racing duplicate is resolved on re-check: first in wins.
  PipelineInstance instance =
      admit_instance(std::move(name), std::move(graph), {});
  instance.fingerprint = fingerprint;
  return add(std::move(instance));
}

InstanceStore::AddResult InstanceStore::add(PipelineInstance instance) {
  if (instance.fingerprint == 0)
    instance.fingerprint = graph::structural_fingerprint(instance.graph);
  const std::scoped_lock lock(mutex_);
  if (const auto it = by_fingerprint_.find(instance.fingerprint);
      it != by_fingerprint_.end()) {
    by_name_.insert_or_assign(std::move(instance.name), it->second);
    return {it->second, /*deduplicated=*/true};
  }
  const std::size_t handle = instances_.size();
  by_fingerprint_.emplace(instance.fingerprint, handle);
  by_name_.insert_or_assign(instance.name, handle);
  instances_.push_back(
      std::make_unique<PipelineInstance>(std::move(instance)));
  return {handle, /*deduplicated=*/false};
}

const PipelineInstance& InstanceStore::get(std::size_t handle) const {
  const std::scoped_lock lock(mutex_);
  if (handle >= instances_.size())
    throw std::out_of_range("unknown instance handle " +
                            std::to_string(handle) + " (store holds " +
                            std::to_string(instances_.size()) + ")");
  return *instances_[handle];
}

std::optional<std::size_t> InstanceStore::find(std::string_view name) const {
  const std::scoped_lock lock(mutex_);
  const auto it = by_name_.find(name);
  if (it == by_name_.end()) return std::nullopt;
  return it->second;
}

std::size_t InstanceStore::size() const {
  const std::scoped_lock lock(mutex_);
  return instances_.size();
}

std::vector<std::string> InstanceStore::names() const {
  const std::scoped_lock lock(mutex_);
  std::vector<std::string> out;
  out.reserve(instances_.size());
  // The admitting registration's name is the primary one; aliases from
  // deduplicated adds live only in by_name_.
  for (const auto& inst : instances_) out.push_back(inst->name);
  return out;
}

}  // namespace bpm::serve
