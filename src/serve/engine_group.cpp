#include "serve/engine_group.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace bpm::serve {

Routing parse_routing(std::string_view name) {
  if (name == "round-robin") return Routing::kRoundRobin;
  if (name == "least-loaded") return Routing::kLeastLoaded;
  if (name == "affinity") return Routing::kAffinity;
  if (name == "backend-fit") return Routing::kBackendFit;
  throw std::invalid_argument(
      "unknown routing policy '" + std::string(name) +
      "' (round-robin | least-loaded | affinity | backend-fit)");
}

std::string_view routing_name(Routing routing) {
  switch (routing) {
    case Routing::kRoundRobin:
      return "round-robin";
    case Routing::kLeastLoaded:
      return "least-loaded";
    case Routing::kAffinity:
      return "affinity";
    case Routing::kBackendFit:
      return "backend-fit";
  }
  return "?";
}

namespace {

std::shared_ptr<device::Engine> make_engine(device::EngineDescriptor d) {
  if (d.backend == device::Backend::kHost)
    return std::make_shared<device::HostParallelEngine>(d);
  return std::make_shared<device::Engine>(d);
}

}  // namespace

EngineGroup::EngineGroup(EngineGroupOptions options)
    : options_(std::move(options)) {
  if (!options_.descriptors.empty()) {
    engines_.reserve(options_.descriptors.size());
    for (const device::EngineDescriptor& d : options_.descriptors)
      engines_.push_back(make_engine(d));
  } else {
    const unsigned n = std::max(options_.engines, 1u);
    engines_.reserve(n);
    for (unsigned i = 0; i < n; ++i)
      engines_.push_back(
          make_engine({.backend = options_.backend,
                       .mode = options_.device_mode,
                       .threads = options_.device_threads}));
  }
  const auto n = engines_.size();
  retired_.assign(n, false);
  dispatches_.assign(n, 0);
  work_dispatched_.assign(n, 0.0);
}

unsigned EngineGroup::least_loaded_locked() const {
  // Minimise (load, lifetime dispatches, index); consider retired engines
  // only when nothing else is left.
  unsigned best = 0;
  bool found = false;
  double best_load = 0.0;
  for (int pass = 0; pass < 2 && !found; ++pass) {
    for (unsigned i = 0; i < engines_.size(); ++i) {
      if (pass == 0 && retired_[i]) continue;
      const double load = engines_[i]->load();
      if (!found || load < best_load ||
          (load == best_load && dispatches_[i] < dispatches_[best])) {
        best = i;
        best_load = load;
        found = true;
      }
    }
  }
  return best;
}

unsigned EngineGroup::backend_fit_locked(
    const DispatchProfile& profile) const {
  const bool heavy = profile.balanced_kernels ||
                     profile.degree_skew >= options_.fit_skew_threshold ||
                     profile.estimated_work >= options_.fit_huge_work;
  const bool tiny =
      !heavy && profile.estimated_work < options_.fit_tiny_work;
  // "i is a strictly better fit than j": shape preference first, then the
  // least-loaded tie-break so equal-fit engines still share the queue.
  const auto better = [&](unsigned i, unsigned j) {
    const device::EngineDescriptor& di = engines_[i]->descriptor();
    const device::EngineDescriptor& dj = engines_[j]->descriptor();
    if (tiny) {
      if (di.lanes != dj.lanes) return di.lanes < dj.lanes;
    } else if (heavy) {
      const bool host_i = di.backend == device::Backend::kHost;
      const bool host_j = dj.backend == device::Backend::kHost;
      if (host_i != host_j) return host_i;
      // Among equal backends the widest engine wins — more workers on a
      // host engine, more straggler-model lanes on a sim one.
      if (di.lanes != dj.lanes) return di.lanes > dj.lanes;
    }
    const double load_i = engines_[i]->load();
    const double load_j = engines_[j]->load();
    if (load_i != load_j) return load_i < load_j;
    if (dispatches_[i] != dispatches_[j])
      return dispatches_[i] < dispatches_[j];
    return i < j;
  };
  unsigned best = 0;
  bool found = false;
  for (int pass = 0; pass < 2 && !found; ++pass)
    for (unsigned i = 0; i < engines_.size(); ++i) {
      if (pass == 0 && retired_[i]) continue;
      if (!found || better(i, best)) best = i;
      found = true;
    }
  return best;
}

unsigned EngineGroup::pick_locked(const DispatchProfile& profile) {
  const std::uint64_t fingerprint = profile.fingerprint;
  switch (options_.routing) {
    case Routing::kRoundRobin: {
      // Next live engine at or after the cursor; with everything retired
      // the cursor position itself serves as the fallback.
      const auto n = static_cast<unsigned>(engines_.size());
      for (unsigned step = 0; step < n; ++step) {
        const unsigned i = (round_robin_next_ + step) % n;
        if (!retired_[i]) {
          round_robin_next_ = (i + 1) % n;
          return i;
        }
      }
      return round_robin_next_;
    }
    case Routing::kLeastLoaded:
      return least_loaded_locked();
    case Routing::kAffinity: {
      const auto it = affinity_.find(fingerprint);
      if (it != affinity_.end()) {
        // Sticky hit — necessarily a live engine: retire() erases every
        // mapping to the retired engine under this same mutex.  Refresh
        // recency and keep the warm placement.
        affinity_lru_.splice(affinity_lru_.begin(), affinity_lru_,
                             it->second);
        return it->second->second;
      }
      const unsigned idx = least_loaded_locked();
      affinity_lru_.emplace_front(fingerprint, idx);
      affinity_.emplace(fingerprint, affinity_lru_.begin());
      while (affinity_lru_.size() > options_.affinity_capacity) {
        affinity_.erase(affinity_lru_.back().first);
        affinity_lru_.pop_back();
      }
      return idx;
    }
    case Routing::kBackendFit:
      return backend_fit_locked(profile);
  }
  return 0;
}

EngineGroup::Lease EngineGroup::acquire(const DispatchProfile& profile) {
  const double work = std::max(profile.estimated_work, 1.0);
  const std::scoped_lock lock(mutex_);
  const unsigned idx = pick_locked(profile);
  ++dispatches_[idx];
  work_dispatched_[idx] += work;
  // Charge the gauge while still holding the group mutex so a concurrent
  // acquire sees this dispatch's load (lock order is always group →
  // engine; nothing takes them the other way around).
  engines_[idx]->add_load(work);
  return Lease(engines_[idx], idx, work);
}

EngineGroup::Lease EngineGroup::acquire(std::uint64_t fingerprint,
                                        double estimated_work) {
  return acquire(DispatchProfile{.fingerprint = fingerprint,
                                 .estimated_work = estimated_work});
}

void EngineGroup::retire(unsigned index) {
  const std::scoped_lock lock(mutex_);
  if (index >= engines_.size() || retired_[index]) return;
  retired_[index] = true;
  for (auto it = affinity_lru_.begin(); it != affinity_lru_.end();) {
    if (it->second == index) {
      affinity_.erase(it->first);
      it = affinity_lru_.erase(it);
    } else {
      ++it;
    }
  }
}

bool EngineGroup::retired(unsigned index) const {
  const std::scoped_lock lock(mutex_);
  return index < retired_.size() && retired_[index];
}

std::vector<EngineGroupEngineStats> EngineGroup::stats() const {
  const std::scoped_lock lock(mutex_);
  std::vector<EngineGroupEngineStats> out(engines_.size());
  for (unsigned i = 0; i < engines_.size(); ++i) {
    out[i].index = i;
    out[i].retired = retired_[i];
    out[i].dispatches = dispatches_[i];
    out[i].work_dispatched = work_dispatched_[i];
    out[i].load = engines_[i]->load();
    out[i].device = engines_[i]->stats();
    out[i].descriptor = engines_[i]->descriptor();
  }
  return out;
}

}  // namespace bpm::serve
