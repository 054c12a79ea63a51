#pragma once

#include <cstdint>
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

/// Registry of the graphs a serving process holds: admits each graph once
/// (shared init + features + fingerprint, built by `admit_instance` with
/// its default options, the cheap greedy init), dedups registrations
/// by structural fingerprint, and hands out stable integer handles that
/// requests refer to.
///
/// Dedup means a client re-registering a graph the service already holds —
/// under any name — gets the original handle back and costs nothing beyond
/// the fingerprint; the first registration's name wins, later names become
/// aliases that `find` resolves.
///
/// Thread safety: all members are safe to call concurrently.  Handles and
/// the `PipelineInstance` references they resolve to stay valid for the
/// store's lifetime (instances are never removed).
class InstanceStore {
 public:
  /// Admits (or dedups) a graph; returns its handle and whether this call
  /// actually admitted it.  Re-using a name re-points it at the newly
  /// registered graph.
  struct AddResult {
    std::size_t handle = 0;
    bool deduplicated = false;  ///< an identical graph was already held
  };
  AddResult add(std::string name, graph::BipartiteGraph graph);

  /// Admits an already-built instance (e.g. a harness's precomputed suite)
  /// without redoing the init / feature work; the caller guarantees
  /// its fields are consistent with `admit_instance`'s defaults.  A
  /// zero fingerprint is computed; dedup applies as usual.
  AddResult add(PipelineInstance instance);

  /// The admitted instance behind a handle; throws `std::out_of_range`
  /// for an unknown one.
  [[nodiscard]] const PipelineInstance& get(std::size_t handle) const;

  /// Resolves a registered name (including dedup aliases) to its handle.
  [[nodiscard]] std::optional<std::size_t> find(std::string_view name) const;

  [[nodiscard]] std::size_t size() const;

  /// Primary names in handle order.
  [[nodiscard]] std::vector<std::string> names() const;

 private:
  mutable std::mutex mutex_;
  /// Stable addresses: handles index this vector; entries are pointers so
  /// growth never moves an instance a worker thread is reading.
  std::vector<std::unique_ptr<PipelineInstance>> instances_;
  std::map<std::uint64_t, std::size_t> by_fingerprint_;
  std::map<std::string, std::size_t, std::less<>> by_name_;
};

}  // namespace bpm::serve
